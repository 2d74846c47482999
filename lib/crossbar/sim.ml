open Mcx_logic
open Mcx_util

(* The seven states of Fig. 2(b), in the order one computation runs them. *)
type step = INA | RI | CFM | EVM | EVR | INR | SO

let step_sequence = [ INA; RI; CFM; EVM; EVR; INR; SO ]

(* Only the states that move data touch the store (true = R_OFF = logic
   1); the defect override and the upset hook live in its write path. *)
let interpret ?defects ?upset layout (dom : _ Store.domain) =
  let fm = layout.Layout.fm in
  let geometry = fm.Function_matrix.geometry in
  let cover = fm.Function_matrix.cover in
  let s =
    Store.create ~name:"Sim.run" ?defects ?upset dom ~rows:layout.Layout.physical_rows
      ~cols:layout.Layout.physical_cols
  in
  let write = Store.write s in
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
     aggregates only junctions at used-row x used-column crossings. A
     horizontal line evaluates the NAND of every junction it crosses:
     disabled/stuck-open junctions hold 1 and are neutral; a stuck-closed
     junction holds 0 and forces the result to 1 (§IV.A). *)
  let used_cols = layout.Layout.col_assignment in
  let used_rows = layout.Layout.row_assignment in
  let execute = function
    | INA -> Store.initialize s
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
          let result = Store.row_nand s r used_cols in
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
        outputs.(k) <- Store.col_and s (pcol (Geometry.Output_comp k)) used_rows
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
        outputs.(k) <- Store.col_and s (pcol (Geometry.Output_main k)) used_rows
      done
  in
  List.iter execute step_sequence;
  (outputs, Store.writes s)

let run_impl ?defects ?upset layout inputs =
  let n_inputs = Geometry.n_inputs layout.Layout.fm.Function_matrix.geometry in
  interpret ?defects ?upset layout (Store.booleans ~name:"Sim.run" ~n_inputs inputs)

let run_counting ?defects layout inputs = run_impl ?defects layout inputs

let run ?defects layout inputs = fst (run_impl ?defects layout inputs)

let run_with_upsets ?defects ~prng ~upset_rate layout inputs =
  fst (run_impl ?defects ~upset:(fun () -> Prng.bernoulli prng upset_rate) layout inputs)

let agrees_with_reference ?defects layout =
  Store.agrees layout.Layout.fm.Function_matrix.cover (fun dom ->
      fst (interpret ?defects layout dom))
