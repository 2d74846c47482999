(* Bit-packed: one bit per cell, rows padded to a whole number of native
   words ([Bits.word_bits] bits each).  Row-level predicates (containment,
   intersection, counting) run word-parallel — a handful of AND/XOR/popcount
   ops per word instead of a byte comparison per cell.

   Invariant: the padding bits of every row's last word are zero, so
   whole-word equality, popcounts and subset tests need no re-masking. *)

type t = { rows : int; cols : int; wpr : int; data : int array }

let create ~rows ~cols fill =
  if rows < 0 || cols < 0 then invalid_arg "Bmatrix.create: negative dimension";
  let wpr = Bits.words_for cols in
  let data = Array.make (rows * wpr) 0 in
  if fill && cols > 0 then begin
    let tail = Bits.tail_mask cols in
    for i = 0 to rows - 1 do
      for w = 0 to wpr - 2 do
        data.((i * wpr) + w) <- -1
      done;
      data.((i * wpr) + wpr - 1) <- tail
    done
  end;
  { rows; cols; wpr; data }

let rows t = t.rows
let cols t = t.cols

let check t i j name =
  if i < 0 || i >= t.rows || j < 0 || j >= t.cols then
    invalid_arg (Printf.sprintf "Bmatrix.%s: (%d,%d) out of %dx%d" name i j t.rows t.cols)

(* [Sys.int_size] is [Bits.word_bits], named here so that the compiler
   sees a constant and divides without a call; the bounds test is inline
   for the same reason. [get] is the per-junction read of defect maps. *)
let get t i j =
  if i < 0 || i >= t.rows || j < 0 || j >= t.cols then check t i j "get";
  let w = (i * t.wpr) + (j / Sys.int_size) in
  (Array.unsafe_get t.data w lsr (j mod Sys.int_size)) land 1 = 1

let set t i j v =
  check t i j "set";
  let w = (i * t.wpr) + Bits.word_of j in
  let bit = 1 lsl Bits.bit_of j in
  let word = Array.unsafe_get t.data w in
  Array.unsafe_set t.data w (if v then word lor bit else word land lnot bit)

let check_row t i name = if i < 0 || i >= t.rows then invalid_arg ("Bmatrix." ^ name)

let set_word t i w bits =
  check_row t i "set_word";
  if w < 0 || w >= t.wpr then invalid_arg "Bmatrix.set_word: word index";
  if w = t.wpr - 1 && bits land lnot (Bits.tail_mask t.cols) <> 0 then
    invalid_arg "Bmatrix.set_word: padding bit set";
  Array.unsafe_set t.data ((i * t.wpr) + w) bits

let copy t = { t with data = Array.copy t.data }

let of_lists = function
  | [] -> invalid_arg "Bmatrix.of_lists: empty"
  | first :: _ as rows_list ->
    let cols = List.length first in
    let rows = List.length rows_list in
    if cols = 0 then invalid_arg "Bmatrix.of_lists: empty row";
    let t = create ~rows ~cols false in
    List.iteri
      (fun i row ->
        if List.length row <> cols then invalid_arg "Bmatrix.of_lists: ragged rows";
        List.iteri (fun j v -> set t i j v) row)
      rows_list;
    t

let of_int_lists l = of_lists (List.map (List.map (fun x -> x <> 0)) l)

let row t i =
  if i < 0 || i >= t.rows then invalid_arg "Bmatrix.row";
  Array.init t.cols (fun j -> get t i j)

let count t =
  let n = ref 0 in
  for w = 0 to Array.length t.data - 1 do
    n := !n + Bits.popcount (Array.unsafe_get t.data w)
  done;
  !n

let count_row t i =
  check_row t i "count_row";
  let base = i * t.wpr in
  let n = ref 0 in
  for w = 0 to t.wpr - 1 do
    n := !n + Bits.popcount (Array.unsafe_get t.data (base + w))
  done;
  !n

(* Visit the set bits of [word], lowest first, as cell indices of word [w]. *)
let rec iter_word f w word =
  if word <> 0 then begin
    f ((w * Bits.word_bits) + Bits.ctz word);
    iter_word f w (word land (word - 1))
  end

let iter_row_set t i f =
  check_row t i "iter_row_set";
  let base = i * t.wpr in
  for w = 0 to t.wpr - 1 do
    iter_word f w (Array.unsafe_get t.data (base + w))
  done

let iter_row_clear t i f =
  check_row t i "iter_row_clear";
  let base = i * t.wpr in
  for w = 0 to t.wpr - 1 do
    let valid = if w = t.wpr - 1 then Bits.tail_mask t.cols else -1 in
    iter_word f w (lnot (Array.unsafe_get t.data (base + w)) land valid)
  done

let check_pair a i b j name =
  check_row a i name;
  check_row b j name;
  if a.cols <> b.cols then invalid_arg (Printf.sprintf "Bmatrix.%s: column count mismatch" name)

(* Every set cell of row [i] of [a] is also set in row [j] of [b]. *)
let row_subset a i b j =
  check_pair a i b j "row_subset";
  let ba = i * a.wpr and bb = j * b.wpr in
  let rec go w =
    w = a.wpr
    || Array.unsafe_get a.data (ba + w) land lnot (Array.unsafe_get b.data (bb + w)) = 0
       && go (w + 1)
  in
  go 0

let row_intersects a i b j =
  check_pair a i b j "row_intersects";
  let ba = i * a.wpr and bb = j * b.wpr in
  let rec go w =
    w < a.wpr
    && (Array.unsafe_get a.data (ba + w) land Array.unsafe_get b.data (bb + w) <> 0
        || go (w + 1))
  in
  go 0

let nor a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Bmatrix.nor: dimension mismatch";
  let t = create ~rows:a.rows ~cols:a.cols false in
  for i = 0 to t.rows - 1 do
    for w = 0 to t.wpr - 1 do
      let x = (i * t.wpr) + w in
      let valid = if w = t.wpr - 1 then Bits.tail_mask t.cols else -1 in
      Array.unsafe_set t.data x
        (lnot (Array.unsafe_get a.data x lor Array.unsafe_get b.data x) land valid)
    done
  done;
  t

let equal a b =
  a.rows = b.rows && a.cols = b.cols
  &&
  let rec go w = w = Array.length a.data || (a.data.(w) = b.data.(w) && go (w + 1)) in
  go 0

let fold f t init =
  let acc = ref init in
  for i = 0 to t.rows - 1 do
    for j = 0 to t.cols - 1 do
      acc := f i j (get t i j) !acc
    done
  done;
  !acc

let map_rows t ~f = List.init t.rows (fun i -> f i (row t i))

let pp ?(one = "1") ?(zero = "0") ppf t =
  for i = 0 to t.rows - 1 do
    if i > 0 then Format.pp_print_newline ppf ();
    for j = 0 to t.cols - 1 do
      if j > 0 then Format.pp_print_string ppf " ";
      Format.pp_print_string ppf (if get t i j then one else zero)
    done
  done

let to_string t = Fmt.str "%a" (pp ?one:None ?zero:None) t
