module Junction = Mcx_crossbar.Junction

type t = { rows : int; cols : int; data : Bytes.t }

let code = function
  | Junction.Functional -> '\000'
  | Junction.Stuck_open -> '\001'
  | Junction.Stuck_closed -> '\002'

let decode = function
  | '\000' -> Junction.Functional
  | '\001' -> Junction.Stuck_open
  | _ -> Junction.Stuck_closed

let create ~rows ~cols = { rows; cols; data = Bytes.make (rows * cols) '\000' }
let rows t = t.rows
let cols t = t.cols

let check t i j =
  if i < 0 || i >= t.rows || j < 0 || j >= t.cols then invalid_arg "Defect_map_reference"

let get t i j =
  check t i j;
  decode (Bytes.get t.data ((i * t.cols) + j))

let set t i j d =
  check t i j;
  Bytes.set t.data ((i * t.cols) + j) (code d)

let random prng ~rows ~cols ~open_rate ~closed_rate =
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

let digest t =
  Digest.to_hex (Digest.string (Printf.sprintf "%dx%d:%s" t.rows t.cols (Bytes.to_string t.data)))

let cm t =
  let cm = Mcx_util.Bmatrix.create ~rows:t.rows ~cols:t.cols false in
  for i = 0 to t.rows - 1 do
    for j = 0 to t.cols - 1 do
      if Junction.defect_equal (get t i j) Junction.Functional then Mcx_util.Bmatrix.set cm i j true
    done
  done;
  cm
