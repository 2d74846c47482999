open Mcx_util
open Mcx_crossbar
open Mcx_mapping
open Mcx_benchmarks

type point = {
  spares : int;
  area : int;
  area_overhead : float;
  psucc : float;
  all_valid : bool;
}

type sweep = {
  benchmark : string;
  open_rate : float;
  closed_rate : float;
  samples : int;
  points : point list;
}

let run ?pool ?(samples = 100) ?(spare_levels = [ 0; 1; 2; 3; 4 ]) ?(open_rate = 0.05)
    ?(closed_rate = 0.01) ~seed ~benchmark () =
  Telemetry.span "experiment.yield" @@ fun () ->
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let bench = Suite.find benchmark in
  let cover = Suite.cover bench in
  let fm = Function_matrix.build cover in
  let geometry = fm.Function_matrix.geometry in
  let base_rows = Geometry.rows geometry and base_cols = Geometry.cols geometry in
  let optimum_area = base_rows * base_cols in
  let key =
    Prng.Key.(
      float
        (float (string (string (root seed) "yield") benchmark) open_rate)
        closed_rate)
  in
  let point spares =
    let rows = base_rows + spares and cols = base_cols + spares in
    let point_key = Prng.Key.int key spares in
    let trial i =
      let prng = Prng.derive point_key i in
      let defects = Defect_map.random prng ~rows ~cols ~open_rate ~closed_rate in
      match Redundant.map ~prng ~algorithm:`Hybrid fm defects with
      | Some placement -> (true, Redundant.verify fm defects placement)
      | None -> (false, true)
    in
    let hits, all_valid =
      Array.fold_left
        (fun (hits, ok) (hit, valid) -> ((if hit then hits + 1 else hits), ok && valid))
        (0, true)
        (Pool.map pool samples trial)
    in
    {
      spares;
      area = rows * cols;
      area_overhead =
        100. *. (float_of_int (rows * cols) /. float_of_int optimum_area -. 1.);
      psucc = 100. *. float_of_int hits /. float_of_int (max 1 samples);
      all_valid;
    }
  in
  { benchmark; open_rate; closed_rate; samples; points = List.map point spare_levels }

let to_table sweep =
  let table =
    Texttable.create [ "spare lines"; "area"; "overhead %"; "Psucc %"; "verified" ]
  in
  List.iter
    (fun p ->
      Texttable.add_row table
        [
          string_of_int p.spares;
          string_of_int p.area;
          Printf.sprintf "%.1f" p.area_overhead;
          Printf.sprintf "%.0f" p.psucc;
          (if p.all_valid then "yes" else "NO");
        ])
    sweep.points;
  table
