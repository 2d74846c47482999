open Mcx_logic
open Mcx_util

type step = INA | RI | CFM | EVM | EVR | INR | SO

let step_sequence = [ INA; RI; CFM; EVM; EVR; INR; SO ]

(* What a junction holds: a Boolean for one computation, or a BDD over the
   inputs for all of them at once. [lit i pol] is variable [i] when [pol]
   and its complement otherwise. *)
type 'v domain =
  { const : bool -> 'v; lit : int -> bool -> 'v; not_ : 'v -> 'v; and_all : 'v list -> 'v }

(* The interpreter keeps the full junction-value grid [values] (true =
   R_OFF = logic 1). Only the states that move data touch it; the defect
   override is applied on every write, and nowhere else. *)

let interpret ?defects ?upset layout dom =
  let fm = layout.Layout.fm in
  let geometry = fm.Function_matrix.geometry in
  let cover = fm.Function_matrix.cover in
  let rows = layout.Layout.physical_rows and cols = layout.Layout.physical_cols in
  let defects =
    match defects with
    | Some d ->
      if Defect_map.rows d <> rows || Defect_map.cols d <> cols then
        invalid_arg "Sim.run: defect map dimension mismatch";
      d
    | None -> Defect_map.create ~rows ~cols
  in
  let values = Array.make_matrix rows cols (dom.const true) in
  let writes = ref 0 in
  (* A transient upset corrupts the value being stored; stuck junctions
     are immune (their state cannot change at all), so they keep the value
     INA left in them whatever is written. *)
  let corrupt v =
    match upset with Some hit when hit () -> dom.not_ v | Some _ | None -> v
  in
  let write r c v =
    incr writes;
    let v = corrupt v in
    values.(r).(c) <-
      (match Defect_map.get defects r c with
      | Junction.Functional -> v
      | (Junction.Stuck_open | Junction.Stuck_closed) as d -> dom.const (Junction.reset_value d))
  in
  let programmed r c = Bmatrix.get layout.Layout.program r c in
  let prow role = layout.Layout.row_assignment.(Geometry.row_of_role geometry role) in
  let pcol role = layout.Layout.col_assignment.(Geometry.column_of_role geometry role) in
  (* Record every literal value in the programmed junctions of row [r]. *)
  let copy_literals r =
    Array.iteri
      (fun j c ->
        match Geometry.column_role geometry j with
        | Geometry.Input_pos i -> if programmed r c then write r c (dom.lit i true)
        | Geometry.Input_neg i -> if programmed r c then write r c (dom.lit i false)
        | Geometry.Output_main _ | Geometry.Output_comp _ -> ())
      layout.Layout.col_assignment
  in
  let n_outputs = Geometry.n_outputs geometry in
  let outputs = Array.make n_outputs (dom.const false) in
  (* Spare (unassigned) lines are isolated by the controller; evaluation
     aggregates only junctions at used-row x used-column crossings. *)
  let used_cols = Array.to_list layout.Layout.col_assignment in
  let used_rows = Array.to_list layout.Layout.row_assignment in
  let row_nand r =
    (* A horizontal line evaluates the NAND of every junction it crosses:
       disabled/stuck-open junctions hold 1 and are neutral; a stuck-closed
       junction holds 0 and forces the result to 1 (§IV.A). *)
    dom.not_ (dom.and_all (List.map (fun c -> values.(r).(c)) used_cols))
  in
  let col_and c = dom.and_all (List.map (fun r -> values.(r).(c)) used_rows) in
  let execute = function
    | INA ->
      for r = 0 to rows - 1 do
        for c = 0 to cols - 1 do
          write r c (dom.const true) (* INA drives every junction to R_OFF *)
        done
      done
    | RI ->
      (* Inputs reach the latch; when the layout material-izes the IL row,
         its junctions record the literal values. *)
      if Geometry.includes_il_row geometry then copy_literals (prow Geometry.Input_latch)
    | CFM ->
      (* Copy each literal value into the NAND-plane junctions of every
         product row, simultaneously. *)
      List.iteri (fun p _ -> copy_literals (prow (Geometry.Product p))) (Mo_cover.rows cover)
    | EVM ->
      (* Evaluate every product row and write the result into its AND-plane
         junctions. *)
      List.iteri
        (fun p row_def ->
          let r = prow (Geometry.Product p) in
          let result = row_nand r in
          Array.iteri
            (fun k member ->
              if member then begin
                let c = pcol (Geometry.Output_comp k) in
                if programmed r c then write r c result
              end)
            row_def.Mo_cover.outputs)
        (Mo_cover.rows cover)
    | EVR ->
      (* Each complement column ANDs the stored product results. *)
      for k = 0 to n_outputs - 1 do
        outputs.(k) <- col_and (pcol (Geometry.Output_comp k))
        (* currently holds the complement *)
      done
    | INR ->
      (* Invert the complement onto the main output column via the output
         row's junction. *)
      for k = 0 to n_outputs - 1 do
        let r = prow (Geometry.Output_row k) in
        let c = pcol (Geometry.Output_main k) in
        if programmed r c then write r c (dom.not_ outputs.(k))
      done
    | SO ->
      (* The main output column delivers the latched result: the AND of the
         column, whose only informative junction is the output row's. *)
      for k = 0 to n_outputs - 1 do
        outputs.(k) <- col_and (pcol (Geometry.Output_main k))
      done
  in
  List.iter execute step_sequence;
  (outputs, !writes)

let run_impl ?defects ?upset layout inputs =
  if Array.length inputs <> Geometry.n_inputs layout.Layout.fm.Function_matrix.geometry then
    invalid_arg "Sim.run: input arity mismatch";
  let lit i pol = Bool.equal inputs.(i) pol in
  interpret ?defects ?upset layout
    { const = Fun.id; lit; not_ = not; and_all = List.for_all Fun.id }

let run_counting ?defects layout inputs = run_impl ?defects layout inputs

let run ?defects layout inputs = fst (run_impl ?defects layout inputs)

let run_with_upsets ?defects ~prng ~upset_rate layout inputs =
  fst (run_impl ?defects ~upset:(fun () -> Prng.bernoulli prng upset_rate) layout inputs)

(* One symbolic computation yields every output as a function of the
   inputs; canonicity makes the comparison with the cover a node check. *)
let agrees_with_reference ?defects layout =
  let cover = layout.Layout.fm.Function_matrix.cover in
  let m = Bdd.manager ~n_vars:(Mo_cover.n_inputs cover) () in
  let t = Bdd.bdd_true m and f = Bdd.bdd_false m in
  let const b = if b then t else f in
  let lit i pol = if pol then Bdd.var m i else Bdd.nvar m i in
  let outputs, _ =
    interpret ?defects layout { const; lit; not_ = Bdd.not_ m; and_all = Bdd.and_list m }
  in
  Array.for_all2 Bdd.equal outputs (Bdd.of_mo_cover m cover)
