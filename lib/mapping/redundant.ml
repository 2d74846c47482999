open Mcx_util
open Mcx_crossbar

type placement = { row_assignment : int array; col_assignment : int array }

(* Build the CM restricted to a column choice: entry (r, j) true when the
   junction at (r, chosen.(j)) is functional. Rows carrying a stuck-closed
   defect in any chosen column are struck out entirely (all-false rows can
   never match a product row; genuinely empty FM rows do not occur because
   every row holds at least an output connection). *)
let restricted_cm defects chosen =
  Telemetry.count "redundant.cm_rebuilds";
  let rows = Defect_map.rows defects in
  let cols = Array.length chosen in
  let cm = Bmatrix.create ~rows ~cols true in
  (* Row kill check: a row is struck out when the stuck-closed plane
     intersects the chosen-column mask — one AND per word per row. A row
     that survives has no stuck-closed junction in a chosen column, so
     only its stuck-open junctions in chosen columns clear a cell
     ([chosen] holds distinct columns). *)
  let chosen_mask = Bmatrix.create ~rows:1 ~cols:(Defect_map.cols defects) false in
  let target = Array.make (Defect_map.cols defects) (-1) in
  Array.iteri
    (fun j c ->
      Bmatrix.set chosen_mask 0 c true;
      target.(c) <- j)
    chosen;
  let closed = Defect_map.closed_mask defects and open_ = Defect_map.open_mask defects in
  for r = 0 to rows - 1 do
    if Bmatrix.row_intersects closed r chosen_mask 0 then
      for j = 0 to cols - 1 do
        Bmatrix.set cm r j false
      done
    else
      Bmatrix.iter_row_set open_ r (fun c ->
          if target.(c) >= 0 then Bmatrix.set cm r target.(c) false)
  done;
  cm

(* Column scoring: closed defects make a column nearly unusable, open
   defects reduce its matching freedom. One walk over the defects scores
   every column. *)
let column_scores defects =
  let score = Array.make (Defect_map.cols defects) 0 in
  let add plane weight =
    for r = 0 to Defect_map.rows defects - 1 do
      Bmatrix.iter_row_set plane r (fun c -> score.(c) <- score.(c) + weight)
    done
  in
  add (Defect_map.closed_mask defects) 1000;
  add (Defect_map.open_mask defects) 1;
  score

let greedy_columns defects ~wanted =
  let score = column_scores defects in
  let scored = Array.mapi (fun c s -> (s, c)) score in
  Array.sort compare scored;
  (* Keep the chosen set in natural column order so that with zero spare
     columns the choice degenerates to the identity. *)
  let chosen = Array.sub (Array.map snd scored) 0 wanted in
  Array.sort compare chosen;
  chosen

let random_columns prng defects ~wanted =
  let all = Array.init (Defect_map.cols defects) Fun.id in
  Prng.shuffle_in_place prng all;
  Array.sub all 0 wanted

let map ?(attempts = 8) ~prng ~algorithm fm_struct defects =
  Telemetry.span "redundant.map" @@ fun () ->
  let fm = fm_struct.Function_matrix.matrix in
  let fm_rows = Bmatrix.rows fm and fm_cols = Bmatrix.cols fm in
  if Defect_map.rows defects < fm_rows || Defect_map.cols defects < fm_cols then
    invalid_arg "Redundant.map: defect map smaller than the function matrix";
  let attempt chosen =
    Telemetry.count "redundant.attempts";
    let cm = restricted_cm defects chosen in
    let row_assignment =
      match algorithm with
      | `Hybrid -> Hybrid.map fm_struct cm
      | `Exact -> Exact.map fm_struct cm
    in
    Option.map
      (fun row_assignment -> { row_assignment; col_assignment = chosen })
      row_assignment
  in
  let rec try_attempts k =
    if k >= attempts then None
    else begin
      let chosen =
        if k = 0 then greedy_columns defects ~wanted:fm_cols
        else random_columns prng defects ~wanted:fm_cols
      in
      match attempt chosen with
      | Some placement -> Some placement
      | None -> try_attempts (k + 1)
    end
  in
  try_attempts 0

let verify fm_struct defects placement =
  let layout =
    Layout.place ~row_assignment:placement.row_assignment
      ~col_assignment:placement.col_assignment
      ~physical_rows:(Defect_map.rows defects)
      ~physical_cols:(Defect_map.cols defects) fm_struct
  in
  Layout.respects layout defects
