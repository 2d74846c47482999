module Geometry = Mcx_crossbar.Geometry
module Defect_map = Mcx_crossbar.Defect_map
module Mo_cover = Mcx_logic.Mo_cover
module Mapper = Mcx_mapping.Mapper

type t = {
  request : Wire.request;
  cover : Mo_cover.t;
  defects : Defect_map.t;
  geometry : Geometry.t;
  row_perm : int array;
  digest : string;
}

let load_cover = function
  | `Pla text -> (
    match Mcx_logic.Pla.parse_string text with
    | parsed -> parsed.Mcx_logic.Pla.cover
    | exception Mcx_logic.Pla.Parse_error (line, msg) ->
      failwith (Printf.sprintf "bad PLA (line %d): %s" line msg))
  | `Benchmark name -> (
    match Mcx_benchmarks.Suite.find name with
    | bench -> Mcx_benchmarks.Suite.cover bench
    | exception Not_found -> failwith (Printf.sprintf "unknown benchmark %S" name))

let materialize_defects (request : Wire.request) geometry =
  let rows = Geometry.rows geometry and cols = Geometry.cols geometry in
  match request.Wire.defects with
  | Wire.Pristine -> Defect_map.create ~rows ~cols
  | Wire.Seeded { seed; open_rate; closed_rate } ->
    Defect_map.random (Mcx_util.Prng.create seed) ~rows ~cols ~open_rate ~closed_rate
  | Wire.Explicit { rows = r; cols = c; stuck_open; stuck_closed } ->
    if r <> rows || c <> cols then
      invalid_arg
        (Printf.sprintf "defect map is %dx%d but the cover's optimum crossbar is %dx%d" r c
           rows cols);
    let map = Defect_map.create ~rows ~cols in
    List.iter (fun (i, j) -> Defect_map.set map i j Mcx_crossbar.Junction.Stuck_open) stuck_open;
    List.iter
      (fun (i, j) -> Defect_map.set map i j Mcx_crossbar.Junction.Stuck_closed)
      stuck_closed;
    map

(* Permute the defect map's input columns by the cover's variable
   relabeling. Output result-pair columns and all rows stay put: the
   relabeling touches variables only. *)
let permute_defect_columns geometry ~var_perm defects =
  if Array.for_all2 (fun v p -> v = p) (Array.init (Array.length var_perm) Fun.id) var_perm
  then defects
  else begin
    let rows = Defect_map.rows defects and cols = Defect_map.cols defects in
    let permuted = Defect_map.create ~rows ~cols in
    let moved =
      Array.init cols (fun j ->
          match Geometry.column_role geometry j with
          | Geometry.Input_pos v ->
            Geometry.column_of_role geometry (Geometry.Input_pos var_perm.(v))
          | Geometry.Input_neg v ->
            Geometry.column_of_role geometry (Geometry.Input_neg var_perm.(v))
          | Geometry.Output_main _ | Geometry.Output_comp _ -> j)
    in
    let copy plane defect =
      for i = 0 to rows - 1 do
        Mcx_util.Bmatrix.iter_row_set plane i (fun j -> Defect_map.set permuted i moved.(j) defect)
      done
    in
    copy (Defect_map.open_mask defects) Mcx_crossbar.Junction.Stuck_open;
    copy (Defect_map.closed_mask defects) Mcx_crossbar.Junction.Stuck_closed;
    permuted
  end

let resolve (request : Wire.request) =
  Mcx_util.Telemetry.span "serve.canonicalize" @@ fun () ->
  let original = load_cover request.Wire.source in
  let config = request.Wire.config in
  let geometry =
    Geometry.create
      ~include_il_row:config.Wire.mapper.Mapper.include_il_row
      ~n_inputs:(Mo_cover.n_inputs original)
      ~n_outputs:(Mo_cover.n_outputs original)
      ~n_products:(Mo_cover.product_count original)
      ()
  in
  let defects_original = materialize_defects request geometry in
  let cover, row_perm, var_perm = Mo_cover.canonical original in
  let defects = permute_defect_columns geometry ~var_perm defects_original in
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat "\n"
            [
              Wire.request_schema;
              Mcx_logic.Pla.to_string cover;
              Defect_map.digest defects;
              Mapper.signature config.Wire.mapper;
              Printf.sprintf "verify=%b" config.Wire.verify;
            ]))
  in
  { request; cover; defects; geometry; row_perm; digest }

let translate_assignment t canonical_assignment =
  Array.init (Array.length canonical_assignment) (fun r ->
      match Geometry.row_role t.geometry r with
      | Geometry.Product p ->
        canonical_assignment.(Geometry.row_of_role t.geometry (Geometry.Product t.row_perm.(p)))
      | Geometry.Input_latch | Geometry.Output_row _ -> canonical_assignment.(r))
