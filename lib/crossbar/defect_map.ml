(* Alongside the byte-per-junction defect grid we maintain a bit-packed
   mask of the stuck-closed cells, kept in sync by [set].  The row/column
   kill checks of the mapping path (a stuck-closed junction poisons its
   whole line) then run word-parallel instead of scanning bytes. *)

type t = {
  rows : int;
  cols : int;
  data : Bytes.t;
  closed : Mcx_util.Bmatrix.t;  (* bit set iff the junction is stuck-closed *)
}

let code = function
  | Junction.Functional -> '\000'
  | Junction.Stuck_open -> '\001'
  | Junction.Stuck_closed -> '\002'

let decode = function
  | '\000' -> Junction.Functional
  | '\001' -> Junction.Stuck_open
  | _ -> Junction.Stuck_closed

let create ~rows ~cols =
  if rows < 0 || cols < 0 then invalid_arg "Defect_map.create: negative dimension";
  {
    rows;
    cols;
    data = Bytes.make (rows * cols) '\000';
    closed = Mcx_util.Bmatrix.create ~rows ~cols false;
  }

let rows t = t.rows
let cols t = t.cols

let check t i j name =
  if i < 0 || i >= t.rows || j < 0 || j >= t.cols then
    invalid_arg (Printf.sprintf "Defect_map.%s: (%d,%d) out of %dx%d" name i j t.rows t.cols)

let get t i j =
  check t i j "get";
  decode (Bytes.unsafe_get t.data ((i * t.cols) + j))

let set t i j d =
  check t i j "set";
  Mcx_util.Telemetry.count "defect_map.mask_updates";
  Bytes.unsafe_set t.data ((i * t.cols) + j) (code d);
  Mcx_util.Bmatrix.set t.closed i j (Junction.defect_equal d Junction.Stuck_closed)

let random prng ~rows ~cols ~open_rate ~closed_rate =
  Mcx_util.Telemetry.span "defect_map.random" @@ fun () ->
  if open_rate < 0. || closed_rate < 0. || open_rate +. closed_rate > 1. then
    invalid_arg "Defect_map.random: bad rates";
  let t = create ~rows ~cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      let u = Mcx_util.Prng.float prng in
      if u < open_rate then set t i j Junction.Stuck_open
      else if u < open_rate +. closed_rate then set t i j Junction.Stuck_closed
    done
  done;
  t

let count t d =
  let target = code d in
  let n = ref 0 in
  Bytes.iter (fun c -> if c = target then incr n) t.data;
  !n

let closed_mask t = t.closed

let row_has_closed t i =
  if i < 0 || i >= t.rows then invalid_arg "Defect_map.row_has_closed";
  Mcx_util.Bmatrix.row_nonzero t.closed i

let col_has_closed t j =
  if j < 0 || j >= t.cols then invalid_arg "Defect_map.col_has_closed";
  Mcx_util.Bmatrix.count_col t.closed j > 0

let usable_rows t =
  List.filter (fun i -> not (row_has_closed t i)) (List.init t.rows Fun.id)

let usable_cols t =
  List.filter (fun j -> not (col_has_closed t j)) (List.init t.cols Fun.id)


let digest t =
  (* Dimensions are folded in explicitly: a 2x3 and a 3x2 grid with the
     same byte string must not collide. *)
  Digest.to_hex (Digest.string (Printf.sprintf "%dx%d:%s" t.rows t.cols (Bytes.to_string t.data)))

let pp ppf t =
  for i = 0 to t.rows - 1 do
    if i > 0 then Format.pp_print_newline ppf ();
    for j = 0 to t.cols - 1 do
      let glyph =
        match get t i j with
        | Junction.Functional -> '.'
        | Junction.Stuck_open -> 'o'
        | Junction.Stuck_closed -> 'x'
      in
      Format.pp_print_char ppf glyph
    done
  done
