open Mcx_logic

type t = {
  geometry : Geometry.t;
  matrix : Mcx_util.Bmatrix.t;
  cover : Mo_cover.t;
}

let build ?(include_il_row = false) cover =
  let n_inputs = Mo_cover.n_inputs cover in
  let n_outputs = Mo_cover.n_outputs cover in
  let n_products = Mo_cover.product_count cover in
  let geometry = Geometry.create ~include_il_row ~n_inputs ~n_outputs ~n_products () in
  let matrix =
    Mcx_util.Bmatrix.create ~rows:(Geometry.rows geometry) ~cols:(Geometry.cols geometry) false
  in
  let set_role row role = Mcx_util.Bmatrix.set matrix row (Geometry.column_of_role geometry role) true in
  if include_il_row then begin
    let il = Geometry.row_of_role geometry Geometry.Input_latch in
    for i = 0 to n_inputs - 1 do
      set_role il (Geometry.Input_pos i);
      set_role il (Geometry.Input_neg i)
    done
  end;
  List.iteri
    (fun p { Mo_cover.cube; outputs } ->
      let row = Geometry.row_of_role geometry (Geometry.Product p) in
      List.iter
        (fun (var, lit) ->
          Mcx_util.Bmatrix.set matrix row (Geometry.column_of_literal geometry ~var lit) true)
        (Cube.literals cube);
      Array.iteri (fun k member -> if member then set_role row (Geometry.Output_comp k)) outputs)
    (Mo_cover.rows cover);
  for k = 0 to n_outputs - 1 do
    let row = Geometry.row_of_role geometry (Geometry.Output_row k) in
    set_role row (Geometry.Output_comp k);
    set_role row (Geometry.Output_main k)
  done;
  { geometry; matrix; cover }

let output_row_indices t =
  List.filter_map
    (fun i ->
      match Geometry.row_role t.geometry i with
      | Geometry.Output_row _ -> Some i
      | Geometry.Input_latch | Geometry.Product _ -> None)
    (List.init (Geometry.rows t.geometry) Fun.id)

let pp ppf t =
  Format.fprintf ppf "%a@.%a" Geometry.pp t.geometry (Mcx_util.Bmatrix.pp ?one:None ?zero:None)
    t.matrix
