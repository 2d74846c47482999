open Mcx_util
open Mcx_crossbar
open Mcx_mapping
open Mcx_benchmarks

type result = {
  benchmark : string;
  samples : int;
  mean_faults_survived : float;
  mean_rows_touched_per_repair : float;
  remap_rows_baseline : float;
  repairs_verified : bool;
}

(* What one die's whole lifetime contributes to the aggregate. *)
type die = {
  faults_survived : float;
  die_touches : float list;  (** rows touched, one entry per non-trivial repair *)
  die_remap_moves : float list;
  die_verified : bool;
}

let run ?pool ?(samples = 60) ?(max_faults = 200) ~seed ~benchmark () =
  Telemetry.span "experiment.aging" @@ fun () ->
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let bench = Suite.find benchmark in
  let cover = Suite.cover bench in
  let fm_struct = Function_matrix.build cover in
  let fm = fm_struct.Function_matrix.matrix in
  let geometry = fm_struct.Function_matrix.geometry in
  let rows = Geometry.rows geometry and cols = Geometry.cols geometry in
  let key = Prng.Key.(string (string (root seed) "aging") benchmark) in
  let die index =
    (* fresh die: pristine crossbar, identity placement, private stream *)
    let prng = Prng.derive key index in
    let defects = Defect_map.create ~rows ~cols in
    let assignment = ref (Array.init rows Fun.id) in
    let alive = ref true in
    let faults = ref 0 in
    let touches = ref [] in
    let remap_moves = ref [] in
    let verified = ref true in
    while !alive && !faults < max_faults do
      (* a new stuck-open fault lands on a random functional junction *)
      let r = Prng.int prng rows and c = Prng.int prng cols in
      if Junction.defect_equal (Defect_map.get defects r c) Junction.Functional then begin
        Defect_map.set defects r c Junction.Stuck_open;
        incr faults;
        let cm = Matching.cm_of_defects defects in
        match Repair.repair ~fm ~cm !assignment with
        | Some { Repair.assignment = repaired; rows_touched } ->
          if rows_touched > 0 then begin
            touches := float_of_int rows_touched :: !touches;
            (* baseline: a full remap moves however many rows the exact
               mapper reshuffles *)
            (match Exact.map_matrix fm cm with
            | Some fresh ->
              let moved = ref 0 in
              Array.iteri (fun i t -> if t <> !assignment.(i) then incr moved) fresh;
              remap_moves := float_of_int !moved :: !remap_moves
            | None -> ());
            if not (Matching.check_assignment ~fm ~cm repaired) then verified := false
          end;
          assignment := repaired
        | None -> alive := false
      end
    done;
    {
      faults_survived = float_of_int (if !alive then !faults else !faults - 1);
      die_touches = List.rev !touches;
      die_remap_moves = List.rev !remap_moves;
      die_verified = !verified;
    }
  in
  let dies = Array.to_list (Pool.map pool samples die) in
  let survived = List.map (fun d -> d.faults_survived) dies in
  let touches = List.concat_map (fun d -> d.die_touches) dies in
  let remap_moves = List.concat_map (fun d -> d.die_remap_moves) dies in
  {
    benchmark;
    samples;
    mean_faults_survived = (match survived with [] -> 0. | l -> Stats.mean l);
    mean_rows_touched_per_repair = (match touches with [] -> 0. | l -> Stats.mean l);
    remap_rows_baseline = (match remap_moves with [] -> 0. | l -> Stats.mean l);
    repairs_verified = List.for_all (fun d -> d.die_verified) dies;
  }

let to_table results =
  let table =
    Texttable.create
      [
        "benchmark"; "dies"; "mean faults survived"; "rows touched / repair";
        "rows moved / full remap"; "verified";
      ]
  in
  List.iter
    (fun r ->
      Texttable.add_row table
        [
          r.benchmark;
          string_of_int r.samples;
          Printf.sprintf "%.1f" r.mean_faults_survived;
          Printf.sprintf "%.2f" r.mean_rows_touched_per_repair;
          Printf.sprintf "%.2f" r.remap_rows_baseline;
          (if r.repairs_verified then "yes" else "NO");
        ])
    results;
  table
