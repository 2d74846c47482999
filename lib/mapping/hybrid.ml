open Mcx_util
open Mcx_crossbar

type stats = { backtracks : int; relocations : int }

type order = Top_down | Hardest_first

let order_rows order fm rows =
  match order with
  | Top_down -> rows
  | Hardest_first ->
    List.stable_sort
      (fun a b -> Int.compare (Bmatrix.count_row fm b) (Bmatrix.count_row fm a))
      rows

let map_rows ?(order = Top_down) ~fm ~greedy_rows ~assignment_rows cm =
  Telemetry.span "hybrid.map" @@ fun () ->
  if Bmatrix.cols cm <> Bmatrix.cols fm then
    invalid_arg "Hybrid.map: column count mismatch";
  if Bmatrix.rows cm < Bmatrix.rows fm then
    invalid_arg "Hybrid.map: crossbar has fewer rows than the function matrix";
  let n_cm = Bmatrix.rows cm in
  let owner = Array.make n_cm (-1) in
  let assigned = Array.make (Bmatrix.rows fm) (-1) in
  let backtracks = ref 0 and relocations = ref 0 in
  let matches fm_row cm_row = Matching.row_matches ~fm ~fm_row ~cm ~cm_row in
  let assign fm_row cm_row =
    owner.(cm_row) <- fm_row;
    assigned.(fm_row) <- cm_row
  in
  let find_unmatched fm_row =
    let rec go t =
      if t = n_cm then None
      else if owner.(t) < 0 && matches fm_row t then Some t
      else go (t + 1)
    in
    go 0
  in
  (* Depth-1 backtracking: steal a matched row whose owner can move to some
     still-unmatched row. *)
  let backtrack fm_row =
    incr backtracks;
    let rec go t =
      if t = n_cm then false
      else if owner.(t) >= 0 && matches fm_row t then begin
        let previous = owner.(t) in
        match find_unmatched previous with
        | Some fresh ->
          incr relocations;
          assign previous fresh;
          assign fm_row t;
          true
        | None -> go (t + 1)
      end
      else go (t + 1)
    in
    go 0
  in
  let place_minterm fm_row =
    match find_unmatched fm_row with
    | Some t ->
      assign fm_row t;
      true
    | None -> backtrack fm_row
  in
  let minterm_rows = order_rows order fm greedy_rows in
  let output_rows = assignment_rows in
  let minterms_ok = List.for_all place_minterm minterm_rows in
  let stats () =
    Telemetry.count ~n:(List.length minterm_rows) "hybrid.greedy_placements";
    Telemetry.count ~n:!backtracks "hybrid.backtracks";
    Telemetry.count ~n:!relocations "hybrid.relocations";
    { backtracks = !backtracks; relocations = !relocations }
  in
  if not minterms_ok then (None, stats ())
  else begin
    (* Exact assignment of the output rows over the unmatched CM rows. *)
    let unmatched = List.filter (fun t -> owner.(t) < 0) (List.init n_cm Fun.id) in
    match Matching.assign ~fm ~fm_rows:output_rows ~cm ~cm_rows:unmatched with
    | Some targets ->
      List.iteri (fun k fm_row -> assigned.(fm_row) <- targets.(k)) output_rows;
      (Some assigned, stats ())
    | None -> (None, stats ())
  end

let map_with_stats ?order fm_struct cm =
  let fm = fm_struct.Function_matrix.matrix in
  let output_rows = Function_matrix.output_row_indices fm_struct in
  let greedy_rows =
    List.filter
      (fun i -> not (List.mem i output_rows))
      (List.init (Bmatrix.rows fm) Fun.id)
  in
  map_rows ?order ~fm ~greedy_rows ~assignment_rows:output_rows cm

let map ?order fm_struct cm = fst (map_with_stats ?order fm_struct cm)
