(* The defects are two bit-planes, stuck-open and stuck-closed, with at
   most one of the two bits set per junction. The mapping path reads them
   a word at a time: the crossbar matrix is the complement of their union,
   and line kills test the stuck-closed plane. Whole-map walks (digest,
   counts, column permutations) visit only the set bits. *)

module Bmatrix = Mcx_util.Bmatrix

type t = {
  rows : int;
  cols : int;
  open_ : Bmatrix.t;  (* bit set iff the junction is stuck-open *)
  closed : Bmatrix.t;  (* bit set iff the junction is stuck-closed *)
}

let create ~rows ~cols =
  if rows < 0 || cols < 0 then invalid_arg "Defect_map.create: negative dimension";
  {
    rows;
    cols;
    open_ = Bmatrix.create ~rows ~cols false;
    closed = Bmatrix.create ~rows ~cols false;
  }

let rows t = t.rows
let cols t = t.cols

let check t i j name =
  if i < 0 || i >= t.rows || j < 0 || j >= t.cols then
    invalid_arg (Printf.sprintf "Defect_map.%s: (%d,%d) out of %dx%d" name i j t.rows t.cols)

let get t i j =
  if i < 0 || i >= t.rows || j < 0 || j >= t.cols then check t i j "get";
  if Bmatrix.get t.open_ i j then Junction.Stuck_open
  else if Bmatrix.get t.closed i j then Junction.Stuck_closed
  else Junction.Functional

let set t i j d =
  check t i j "set";
  Mcx_util.Telemetry.count "defect_map.mask_updates";
  Bmatrix.set t.open_ i j (Junction.defect_equal d Junction.Stuck_open);
  Bmatrix.set t.closed i j (Junction.defect_equal d Junction.Stuck_closed)

(* [Prng.float] is [k *. 0x1.0p-53] for the draw's top 53 bits [k], and
   scaling by 2^53 is exact, so [Prng.float < p] iff [k < ⌈p·2^53⌉]: the
   float test of the reference, on integers. Each row's draws fill one
   array; each plane word is built in a local, one junction per bit, and
   written once if nonzero. [k - threshold] is negative iff [k] is below
   it, and its sign bit is the junction's bit. [Sys.int_size] is
   [Bits.word_bits], named so that the compiler sees a constant. *)
let random prng ~rows ~cols ~open_rate ~closed_rate =
  Mcx_util.Telemetry.span "defect_map.random" @@ fun () ->
  (* Stated positively so that a NaN rate fails it. *)
  if not (open_rate >= 0. && closed_rate >= 0. && open_rate +. closed_rate <= 1.) then
    invalid_arg "Defect_map.random: bad rates";
  let t = create ~rows ~cols in
  let threshold p = int_of_float (Float.ceil (Float.ldexp p 53)) in
  let t_open = threshold open_rate and t_either = threshold (open_rate +. closed_rate) in
  let draws = Array.make cols 0 and defects = ref 0 and sign = Sys.int_size - 1 in
  for i = 0 to rows - 1 do
    Mcx_util.Prng.fill_bits53 prng draws;
    for w = 0 to Mcx_util.Bits.words_for cols - 1 do
      let first = w * Sys.int_size in
      let open_word = ref 0 and either_word = ref 0 in
      for b = 0 to min Sys.int_size (cols - first) - 1 do
        let k = Array.unsafe_get draws (first + b) in
        open_word := !open_word lor (((k - t_open) lsr sign) lsl b);
        either_word := !either_word lor (((k - t_either) lsr sign) lsl b)
      done;
      if !either_word <> 0 then begin
        if !open_word <> 0 then Bmatrix.set_word t.open_ i w !open_word;
        if !either_word <> !open_word then
          Bmatrix.set_word t.closed i w (!either_word lxor !open_word);
        defects := !defects + Mcx_util.Bits.popcount !either_word
      end
    done
  done;
  if !defects > 0 then Mcx_util.Telemetry.count ~n:!defects "defect_map.mask_updates";
  t

let count t = function
  | Junction.Stuck_open -> Bmatrix.count t.open_
  | Junction.Stuck_closed -> Bmatrix.count t.closed
  | Junction.Functional -> (t.rows * t.cols) - Bmatrix.count t.open_ - Bmatrix.count t.closed

let open_mask t = t.open_
let closed_mask t = t.closed

let digest t =
  (* The byte grid of one code per junction (0 functional, 1 stuck-open,
     2 stuck-closed), filled from the set bits. Dimensions are folded in
     explicitly: a 2x3 and a 3x2 grid with the same bytes must not
     collide. *)
  let grid = Bytes.make (t.rows * t.cols) '\000' in
  let mark plane code =
    for i = 0 to t.rows - 1 do
      Bmatrix.iter_row_set plane i (fun j -> Bytes.unsafe_set grid ((i * t.cols) + j) code)
    done
  in
  mark t.open_ '\001';
  mark t.closed '\002';
  Digest.to_hex
    (Digest.string (Printf.sprintf "%dx%d:%s" t.rows t.cols (Bytes.unsafe_to_string grid)))

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
