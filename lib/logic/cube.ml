open Mcx_util

(* A cube (product term) over [arity] variables as two packed bit masks,
   one bit per variable per mask ([Bits.word_bits] variables per native
   word):

     care bit i = 1   <->  variable i carries a literal
     pol  bit i = 1   <->  that literal is positive

   Invariants: [pol land lnot care = 0] in every word (polarity bits are
   canonical zero on absent variables) and bits at positions >= arity are
   zero, so whole-word comparisons and popcounts need no re-masking.

   With this coding the cover/containment kernels collapse to a few
   word-parallel operations; see the per-function comments. The
   enumeration helpers at the end (sharp, minterms) are clearer, and cold
   enough, at the per-variable level. *)

type t = { arity : int; care : int array; pol : int array }

let arity t = t.arity
let words t = Array.length t.care
let care_word t w = t.care.(w)
let pol_word t w = t.pol.(w)

let universe n =
  if n < 0 then invalid_arg "Cube.universe: negative arity";
  let nw = Bits.words_for n in
  { arity = n; care = Array.make nw 0; pol = Array.make nw 0 }

let make ~arity ~f =
  let t = universe arity in
  for i = 0 to arity - 1 do
    let w = Bits.word_of i and bit = 1 lsl Bits.bit_of i in
    (match (f i : Literal.t) with
    | Literal.Absent -> ()
    | Literal.Neg -> t.care.(w) <- t.care.(w) lor bit
    | Literal.Pos ->
      t.care.(w) <- t.care.(w) lor bit;
      t.pol.(w) <- t.pol.(w) lor bit)
  done;
  t

let of_literals a = make ~arity:(Array.length a) ~f:(Array.get a)
let of_string s = make ~arity:(String.length s) ~f:(fun i -> Literal.of_char s.[i])

let unsafe_get t i =
  let w = Bits.word_of i and b = Bits.bit_of i in
  if (Array.unsafe_get t.care w lsr b) land 1 = 0 then Literal.Absent
  else if (Array.unsafe_get t.pol w lsr b) land 1 = 1 then Literal.Pos
  else Literal.Neg

let get t i =
  if i < 0 || i >= t.arity then invalid_arg "Cube.get: variable out of range";
  unsafe_get t i

let set t i l =
  if i < 0 || i >= t.arity then invalid_arg "Cube.set: variable out of range";
  let care = Array.copy t.care and pol = Array.copy t.pol in
  let w = Bits.word_of i and bit = 1 lsl Bits.bit_of i in
  (match (l : Literal.t) with
  | Literal.Absent ->
    care.(w) <- care.(w) land lnot bit;
    pol.(w) <- pol.(w) land lnot bit
  | Literal.Neg ->
    care.(w) <- care.(w) lor bit;
    pol.(w) <- pol.(w) land lnot bit
  | Literal.Pos ->
    care.(w) <- care.(w) lor bit;
    pol.(w) <- pol.(w) lor bit);
  { t with care; pol }

let to_array t = Array.init t.arity (unsafe_get t)
let to_string t = String.init t.arity (fun i -> Literal.to_char (unsafe_get t i))

let num_literals t =
  let n = ref 0 in
  for w = 0 to Array.length t.care - 1 do
    n := !n + Bits.popcount (Array.unsafe_get t.care w)
  done;
  !n

let is_minterm t = num_literals t = t.arity

let literals t =
  (* Per word, peel set bits in ascending order; walking the words
     high-to-low and prepending keeps the whole list ascending. *)
  let out = ref [] in
  for w = Array.length t.care - 1 downto 0 do
    let word = t.care.(w) in
    if word <> 0 then begin
      let collected = ref [] in
      let m = ref word in
      while !m <> 0 do
        let b = Bits.ctz !m in
        let i = (w * Bits.word_bits) + b in
        collected := (i, unsafe_get t i) :: !collected;
        m := !m land (!m - 1)
      done;
      out := List.rev_append !collected !out
    end
  done;
  !out

let equal a b =
  a.arity = b.arity
  &&
  let rec go w =
    w = Array.length a.care || (a.care.(w) = b.care.(w) && a.pol.(w) = b.pol.(w) && go (w + 1))
  in
  go 0

(* Lexicographic by variable index with the literal order Neg < Pos <
   Absent, matching [Literal.compare] — rank = 2*(1-care) + pol. *)
let rank_at t w b = if (t.care.(w) lsr b) land 1 = 0 then 2 else (t.pol.(w) lsr b) land 1

let compare a b =
  if a.arity <> b.arity then Int.compare a.arity b.arity
  else begin
    let nw = Array.length a.care in
    let rec go w =
      if w = nw then 0
      else
        let diff = a.care.(w) lxor b.care.(w) lor (a.pol.(w) lxor b.pol.(w)) in
        if diff = 0 then go (w + 1)
        else
          let b0 = Bits.ctz diff in
          Int.compare (rank_at a w b0) (rank_at b w b0)
    in
    go 0
  end

let hash t =
  let h = ref (Bits.mix 0x4D435843 t.arity) (* "MCXC" *) in
  for w = 0 to Array.length t.care - 1 do
    h := Bits.mix !h t.care.(w);
    h := Bits.mix !h t.pol.(w)
  done;
  !h land max_int

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let check_arity name a b =
  if a.arity <> b.arity then invalid_arg (Printf.sprintf "Cube.%s: arity mismatch" name)

(* a covers b: a's literals are a subset of b's with equal polarity —
   per word, care(a) ⊆ care(b) and polarities agree on care(a). *)
let covers a b =
  a.arity = b.arity
  &&
  let rec go w =
    w = Array.length a.care
    || a.care.(w) land lnot b.care.(w) = 0
       && a.care.(w) land (a.pol.(w) lxor b.pol.(w)) = 0
       && go (w + 1)
  in
  go 0

(* Variables constrained by both cubes with opposite polarity. *)
let conflict_word a b w = a.care.(w) land b.care.(w) land (a.pol.(w) lxor b.pol.(w))

let distance a b =
  check_arity "distance" a b;
  let d = ref 0 in
  for w = 0 to Array.length a.care - 1 do
    d := !d + Bits.popcount (conflict_word a b w)
  done;
  !d

let intersect a b =
  check_arity "intersect" a b;
  let nw = Array.length a.care in
  let rec clash w = w < nw && (conflict_word a b w <> 0 || clash (w + 1)) in
  if clash 0 then None
  else
    Some
      {
        a with
        care = Array.init nw (fun w -> a.care.(w) lor b.care.(w));
        pol = Array.init nw (fun w -> a.pol.(w) lor b.pol.(w));
      }

let supercube a b =
  check_arity "supercube" a b;
  let nw = Array.length a.care in
  let care =
    Array.init nw (fun w -> a.care.(w) land b.care.(w) land lnot (a.pol.(w) lxor b.pol.(w)))
  in
  let pol = Array.init nw (fun w -> a.pol.(w) land care.(w)) in
  { a with care; pol }

(* Quine–McCluskey merge: identical care sets and exactly one polarity
   difference inside them. *)
let merge_adjacent a b =
  check_arity "merge_adjacent" a b;
  let nw = Array.length a.care in
  let rec same_care w = w = nw || (a.care.(w) = b.care.(w) && same_care (w + 1)) in
  if not (same_care 0) then None
  else begin
    let diff_bits = ref 0 and diff_word = ref (-1) in
    for w = 0 to nw - 1 do
      let d = a.pol.(w) lxor b.pol.(w) in
      if d <> 0 then begin
        diff_bits := !diff_bits + Bits.popcount d;
        diff_word := w
      end
    done;
    if !diff_bits <> 1 then None
    else begin
      let w = !diff_word in
      let bit = a.pol.(w) lxor b.pol.(w) in
      let care = Array.copy a.care and pol = Array.copy a.pol in
      care.(w) <- care.(w) land lnot bit;
      pol.(w) <- pol.(w) land lnot bit;
      Some { a with care; pol }
    end
  end

let cofactor t ~var ~value =
  let required = if value then Literal.Pos else Literal.Neg in
  match get t var with
  | Literal.Absent -> Some { t with care = Array.copy t.care }
  | l when Literal.equal l required -> Some (set t var Literal.Absent)
  | Literal.Pos | Literal.Neg -> None

(* Cofactor [g] with respect to cube [c]: drop from [g] every literal fixed
   by [c]; [None] when they conflict (empty cofactor).  One AND-NOT per
   word — this is the inner loop of the unate-recursive tautology check. *)
let cofactor_wrt g c =
  check_arity "cofactor_wrt" g c;
  let nw = Array.length g.care in
  let rec clash w = w < nw && (conflict_word g c w <> 0 || clash (w + 1)) in
  if clash 0 then None
  else
    Some
      {
        g with
        care = Array.init nw (fun w -> g.care.(w) land lnot c.care.(w));
        pol = Array.init nw (fun w -> g.pol.(w) land lnot c.care.(w));
      }

let pack_assignment v =
  let nw = Bits.words_for (Array.length v) in
  let words = Array.make nw 0 in
  Array.iteri
    (fun i x -> if x then words.(Bits.word_of i) <- words.(Bits.word_of i) lor (1 lsl Bits.bit_of i))
    v;
  words

(* The cube is satisfied iff on every constrained variable the assignment
   matches the polarity: care land (pol lxor v) = 0 per word. *)
let eval_packed t v =
  let rec go w =
    w = Array.length t.care
    || Array.unsafe_get t.care w land (Array.unsafe_get t.pol w lxor Array.unsafe_get v w) = 0
       && go (w + 1)
  in
  go 0

let eval t v =
  if t.arity <> Array.length v then invalid_arg "Cube.eval: arity mismatch";
  eval_packed t (pack_assignment v)

let sharp a b =
  if arity a <> arity b then invalid_arg "Cube.sharp: arity mismatch";
  match intersect a b with
  | None -> [ a ]
  | Some _ ->
    (* Disjoint-sharp recurrence: walk the variables where b constrains a
       more tightly; each produces one cube of the difference, with the
       earlier variables pinned to b's values to keep the cubes disjoint. *)
    let a_arr = to_array a and b_arr = to_array b in
    let out = ref [] in
    let pinned = Array.copy a_arr in
    for i = 0 to Array.length a_arr - 1 do
      (match (a_arr.(i), b_arr.(i)) with
      | Literal.Absent, (Literal.Pos | Literal.Neg) ->
        let piece = Array.copy pinned in
        piece.(i) <- Literal.complement b_arr.(i);
        out := of_literals piece :: !out;
        pinned.(i) <- b_arr.(i)
      | (Literal.Pos | Literal.Neg | Literal.Absent), _ -> ())
    done;
    List.rev !out

let minterms c =
  let n = arity c in
  let lits = to_array c in
  let free = List.filter (fun i -> Literal.equal lits.(i) Literal.Absent) (List.init n Fun.id) in
  let base = Array.map (function Literal.Pos -> true | Literal.Neg | Literal.Absent -> false) lits in
  let rec expand vars acc =
    match vars with
    | [] -> [ Array.copy acc ]
    | v :: rest ->
      acc.(v) <- false;
      let lows = expand rest acc in
      acc.(v) <- true;
      let highs = expand rest acc in
      acc.(v) <- false;
      lows @ highs
  in
  expand free base

let pp ppf c = Format.pp_print_string ppf (to_string c)
