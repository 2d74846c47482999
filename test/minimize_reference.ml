(* Two-level minimization as it stood before EXPAND read the OFF-set,
   REDUCE took the hull from the tautology kernel and joint minimization
   read truth tables: the reference the library must match cube for cube,
   in the same order. Telemetry is left to the library versions. *)

open Mcx_logic

let cost f = (Cover.size f, Cover.literal_count f)

(* [c] lies inside [inside], so the grown cube does iff the half the raise
   adds does: the cube with that literal complemented. *)
let expand_cube inside c =
  let current = ref c in
  for var = 0 to Cube.arity c - 1 do
    match Cube.get !current var with
    | Literal.Absent -> ()
    | (Literal.Pos | Literal.Neg) as l ->
      if Tautology.covers inside (Cube.set !current var (Literal.complement l)) then
        current := Cube.set !current var Literal.Absent
  done;
  !current

(* An expanded cube that contains other cubes switched on takes its own
   cube's place in the sweep, switched on, and switches them off: the
   function, and so every answer, is unchanged, while later checks meet
   fewer cubes. *)
let expand f =
  let n = Cover.arity f in
  let by_fewest_minterms a b = Int.compare (Cube.num_literals b) (Cube.num_literals a) in
  let cubes = List.stable_sort by_fewest_minterms (Cover.cubes f) in
  let inside = Tautology.of_cubes ~arity:n cubes in
  let current = Array.of_list cubes and on = Array.make (List.length cubes) true in
  let absorb i e =
    let absorbed = ref false in
    Array.iteri
      (fun j d ->
        if j <> i && on.(j) && Cube.covers e d then begin
          Tautology.switch inside j false;
          on.(j) <- false;
          absorbed := true
        end)
      current;
    if !absorbed then begin
      Tautology.set inside i e;
      Tautology.switch inside i true;
      current.(i) <- e;
      on.(i) <- true
    end
  in
  let expanded =
    List.mapi
      (fun i c ->
        let e = expand_cube inside c in
        absorb i e;
        e)
      cubes
  in
  Cover.single_cube_containment (Cover.create ~arity:n expanded)

let cofactor_wrt_cube f c =
  Cover.create ~arity:(Cover.arity f)
    (List.filter_map (fun g -> Cube.cofactor_wrt g c) (Cover.cubes f))

let reduce f =
  let n = Cover.arity f in
  let reduce_cube others c =
    match Cover.cubes (Complement.complement (cofactor_wrt_cube others c)) with
    | [] -> c
    | first :: rest ->
      let sc = List.fold_left Cube.supercube first rest in
      Cube.make ~arity:n ~f:(fun i ->
          match Cube.get c i with
          | Literal.Absent -> Cube.get sc i
          | (Literal.Pos | Literal.Neg) as l -> l)
  in
  let rec sweep done_ = function
    | [] -> List.rev done_
    | c :: rest ->
      let others = Cover.create ~arity:n (List.rev_append done_ rest) in
      sweep (reduce_cube others c :: done_) rest
  in
  let by_fewest_literals a b = Int.compare (Cube.num_literals a) (Cube.num_literals b) in
  Cover.create ~arity:n (sweep [] (List.stable_sort by_fewest_literals (Cover.cubes f)))

let espresso f =
  let rec loop current current_cost budget =
    if budget = 0 then current
    else begin
      let candidate = Minimize.irredundant (expand (reduce current)) in
      let candidate_cost = cost candidate in
      if compare candidate_cost current_cost < 0 then loop candidate candidate_cost (budget - 1)
      else current
    end
  in
  let start = Minimize.irredundant (expand (Cover.single_cube_containment f)) in
  loop start (cost start) 8

let complement_minimized f = espresso (Complement.complement f)

(* One sweep per output over all rows, a row switched on while its mask
   drives that output. *)
let output_sweeps ~n_inputs ~n_outputs rows =
  let cubes = List.map fst rows in
  Array.init n_outputs (fun k ->
      let sweep = Tautology.of_cubes ~arity:n_inputs cubes in
      List.iteri (fun i (_, mask) -> if not mask.(k) then Tautology.switch sweep i false) rows;
      sweep)

let minimize_joint mo =
  let n_inputs = Mo_cover.n_inputs mo in
  let n_outputs = Mo_cover.n_outputs mo in
  (* reference functions, fixed *)
  let reference =
    Array.init n_outputs (fun k ->
        Tautology.of_cubes ~arity:n_inputs (Cover.cubes (Mo_cover.output_cover mo k)))
  in
  let covered_by_reference cube k = Tautology.covers reference.(k) cube in

  let expand_outputs rows =
    List.map
      (fun (cube, mask) ->
        let mask = Array.copy mask in
        for k = 0 to n_outputs - 1 do
          if (not mask.(k)) && covered_by_reference cube k then mask.(k) <- true
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
            let rec inside k =
              k = n_outputs || ((not mask.(k)) || covered_by_reference added k) && inside (k + 1)
            in
            if inside 0 then current := Cube.set !current var Literal.Absent
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
