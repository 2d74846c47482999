open Mcx_util

type t = {
  fm : Function_matrix.t;
  physical_rows : int;
  physical_cols : int;
  row_assignment : int array;
  col_assignment : int array;
  program : Bmatrix.t;
}

let check_assignment name assignment ~expected_length ~bound =
  if Array.length assignment <> expected_length then
    invalid_arg (Printf.sprintf "Layout.place: %s has length %d, expected %d" name
                   (Array.length assignment) expected_length);
  let seen = Hashtbl.create expected_length in
  Array.iter
    (fun v ->
      if v < 0 || v >= bound then
        invalid_arg (Printf.sprintf "Layout.place: %s target %d out of range" name v);
      if Hashtbl.mem seen v then
        invalid_arg (Printf.sprintf "Layout.place: %s maps two lines to %d" name v);
      Hashtbl.replace seen v ())
    assignment

let place ?row_assignment ?col_assignment ?physical_rows ?physical_cols fm =
  let geometry = fm.Function_matrix.geometry in
  let fm_rows = Geometry.rows geometry and fm_cols = Geometry.cols geometry in
  let physical_rows = Option.value physical_rows ~default:fm_rows in
  let physical_cols = Option.value physical_cols ~default:fm_cols in
  if physical_rows < fm_rows || physical_cols < fm_cols then
    invalid_arg "Layout.place: physical grid smaller than the function matrix";
  let row_assignment =
    Option.value row_assignment ~default:(Array.init fm_rows Fun.id)
  in
  let col_assignment =
    Option.value col_assignment ~default:(Array.init fm_cols Fun.id)
  in
  check_assignment "row assignment" row_assignment ~expected_length:fm_rows
    ~bound:physical_rows;
  check_assignment "column assignment" col_assignment ~expected_length:fm_cols
    ~bound:physical_cols;
  let program = Bmatrix.create ~rows:physical_rows ~cols:physical_cols false in
  for i = 0 to fm_rows - 1 do
    for j = 0 to fm_cols - 1 do
      if Bmatrix.get fm.Function_matrix.matrix i j then
        Bmatrix.set program row_assignment.(i) col_assignment.(j) true
    done
  done;
  { fm; physical_rows; physical_cols; row_assignment; col_assignment; program }

let of_cover ?include_il_row cover =
  place (Function_matrix.build ?include_il_row cover)

let physical_row_of_fm_row t i =
  if i < 0 || i >= Array.length t.row_assignment then
    invalid_arg "Layout.physical_row_of_fm_row";
  t.row_assignment.(i)

let respects t defects =
  if Defect_map.rows defects <> t.physical_rows || Defect_map.cols defects <> t.physical_cols
  then invalid_arg "Layout.respects: defect map dimension mismatch";
  (* Stuck-closed anywhere in the used submatrix poisons a used line; spare
     (unused) lines are assumed to be biased neutral by the controller, so
     their junctions do not matter. *)
  let used_rows = Array.to_list t.row_assignment in
  let used_cols = Array.to_list t.col_assignment in
  let lines_clean =
    List.for_all
      (fun r ->
        List.for_all
          (fun c ->
            not (Junction.defect_equal (Defect_map.get defects r c) Junction.Stuck_closed))
          used_cols)
      used_rows
  in
  lines_clean
  && Bmatrix.fold
       (fun i j required ok ->
         ok
         && ((not required)
            || Junction.defect_equal
                 (Defect_map.get defects t.row_assignment.(i) t.col_assignment.(j))
                 Junction.Functional))
       t.fm.Function_matrix.matrix true
