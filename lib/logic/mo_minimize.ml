(* Rows are (cube, output mask) pairs; the per-output functions are
   tabulated once from the input cover, so every expansion is checked
   against the original semantics. *)

(* One sweep per output over all rows, a row switched on while its mask
   drives that output. *)
let output_sweeps ~n_inputs ~n_outputs rows =
  let cubes = List.map fst rows in
  Array.init n_outputs (fun k ->
      let sweep = Tautology.of_cubes ~arity:n_inputs cubes in
      List.iteri (fun i (_, mask) -> if not mask.(k) then Tautology.switch sweep i false) rows;
      sweep)

let minimize_joint mo =
  Mcx_util.Telemetry.span "mo_minimize.joint" @@ fun () ->
  let n_inputs = Mo_cover.n_inputs mo in
  let n_outputs = Mo_cover.n_outputs mo in
  let tables = Array.init n_outputs (fun k -> Truthtable.of_cover (Mo_cover.output_cover mo k)) in
  let inside cube k = Truthtable.covers tables.(k) cube in

  let expand_outputs rows =
    List.map
      (fun (cube, mask) ->
        let mask = Array.copy mask in
        for k = 0 to n_outputs - 1 do
          if (not mask.(k)) && inside cube k then mask.(k) <- true
        done;
        (cube, mask))
      rows
  in

  (* A row's cube lies inside every output of its mask, so raising a
     literal keeps it there iff the half the raise adds (the cube with
     that literal complemented) lies there. *)
  let expand_inputs rows =
    List.map
      (fun (cube, mask) ->
        let current = ref cube in
        for var = 0 to n_inputs - 1 do
          match Cube.get !current var with
          | Literal.Absent -> ()
          | (Literal.Pos | Literal.Neg) as l ->
            let added = Cube.set !current var (Literal.complement l) in
            let rec inside_mask k =
              k = n_outputs || ((not mask.(k)) || inside added k) && inside_mask (k + 1)
            in
            if inside_mask 0 then current := Cube.set !current var Literal.Absent
        done;
        (!current, mask))
      rows
  in

  let irredundant rows =
    (* visit small cubes first so the specific rows get dropped in favour
       of the expanded ones *)
    let sorted =
      List.stable_sort
        (fun (a, _) (b, _) -> Int.compare (Cube.num_literals b) (Cube.num_literals a))
        rows
    in
    let sweeps = output_sweeps ~n_inputs ~n_outputs sorted in
    let switch i mask on =
      Array.iteri (fun k drives -> if drives then Tautology.switch sweeps.(k) i on) mask
    in
    (* A row is dropped when the kept rows and the rows not yet visited
       cover it in every output it drives. *)
    let rec visit i = function
      | [] -> []
      | ((cube, mask) as row) :: rest ->
        switch i mask false;
        let needed k = mask.(k) && not (Tautology.covers sweeps.(k) cube) in
        if List.exists needed (List.init n_outputs Fun.id) then begin
          switch i mask true;
          row :: visit (i + 1) rest
        end
        else visit (i + 1) rest
    in
    visit 0 sorted
  in

  let to_mo rows =
    Mo_cover.create ~n_inputs ~n_outputs
      (List.map (fun (cube, outputs) -> { Mo_cover.cube; outputs }) rows)
  in

  (* espresso's make_sparse: after the row count settles, strip output
     connections that other rows already provide. Fewer AND-plane
     switches means a lower inclusion ratio and an easier defect-tolerant
     mapping — the output expansion above was only a vehicle for dropping
     rows, not an end state. *)
  let make_sparse rows =
    let sweeps = output_sweeps ~n_inputs ~n_outputs rows in
    List.iteri
      (fun i (cube, mask) ->
        for k = 0 to n_outputs - 1 do
          if mask.(k) && Array.fold_left (fun n b -> if b then n + 1 else n) 0 mask > 1 then begin
            Tautology.switch sweeps.(k) i false;
            if Tautology.covers sweeps.(k) cube then mask.(k) <- false
            else Tautology.switch sweeps.(k) i true
          end
        done)
      rows;
    rows
  in

  (* One pass is a fixpoint. Afterwards cubes and masks have only grown:
     a raise rejected during the pass stays rejected (the half it would
     add has only grown), no mask can grow (a cube inside an output was
     inside it before it grew, when its outputs were expanded) and every
     kept row stays needed (the other rows are among those it was checked
     against). *)
  let rows = List.map (fun r -> (r.Mo_cover.cube, Array.copy r.Mo_cover.outputs)) (Mo_cover.rows mo) in
  to_mo (make_sparse (irredundant (expand_inputs (expand_outputs rows))))
