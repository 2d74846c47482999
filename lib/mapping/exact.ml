open Mcx_util

let map_matrix fm cm =
  Telemetry.span "exact.map" @@ fun () ->
  if Bmatrix.cols cm <> Bmatrix.cols fm then invalid_arg "Exact.map: column count mismatch";
  if Bmatrix.rows cm < Bmatrix.rows fm then
    invalid_arg "Exact.map: crossbar has fewer rows than the function matrix";
  Matching.assign ~fm
    ~fm_rows:(List.init (Bmatrix.rows fm) Fun.id)
    ~cm
    ~cm_rows:(List.init (Bmatrix.rows cm) Fun.id)

let map fm_struct cm = map_matrix fm_struct.Mcx_crossbar.Function_matrix.matrix cm

let feasible fm_struct cm = Option.is_some (map fm_struct cm)
