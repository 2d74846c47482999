(* complement(f) about a branching variable x:
     f' = x . (f_x)'  +  x' . (f_x')'
   Leaves: empty cover -> universe; cover containing the universe cube ->
   empty. Branch on the most binate variable to keep the recursion shallow.

   Covers are flat care/polarity word arrays, [w] words per cube, the
   layout of [Cube]. Every result is free of contained cubes and
   sorted by literal count, stably: a leaf trivially, and a node because
   each branch is, the literal attached to a branch keeps its cubes'
   containment as it was, and the two branches conflict on that literal.
   So single-cube containment over a node's cubes deletes nothing, and its
   stable sort by literal count is a merge of the two branches, the
   positive one first on ties. *)

open Mcx_util

(* [count] cubes, cube i at words [i*w, (i+1)*w) of [care] and [pol]
   (the arrays may be longer), with its literal count in [lits.(i)]. *)
type flat = { count : int; care : int array; pol : int array; lits : int array }

let universe ~w = { count = 1; care = Array.make w 0; pol = Array.make w 0; lits = [| 0 |] }
let empty = { count = 0; care = [||]; pol = [||]; lits = [||] }

(* The first variable with the largest (min(pos, neg), pos + neg) over
   its occurrence counts; -1 when no cube has a literal. [pos] and [neg]
   are zero on entry and on return. *)
let most_binate ~arity ~w ~pos ~neg f =
  for i = 0 to f.count - 1 do
    for k = 0 to w - 1 do
      let m = ref f.care.((i * w) + k) and p = f.pol.((i * w) + k) in
      while !m <> 0 do
        let b = Bits.ctz !m in
        let v = (k * Bits.word_bits) + b in
        if (p lsr b) land 1 = 1 then pos.(v) <- pos.(v) + 1 else neg.(v) <- neg.(v) + 1;
        m := !m land (!m - 1)
      done
    done
  done;
  let best = ref (-1) and best_min = ref (-1) and best_sum = ref 0 in
  for v = 0 to arity - 1 do
    let lo = min pos.(v) neg.(v) and sum = pos.(v) + neg.(v) in
    if sum > 0 && (lo > !best_min || (lo = !best_min && sum > !best_sum)) then begin
      best := v;
      best_min := lo;
      best_sum := sum
    end;
    pos.(v) <- 0;
    neg.(v) <- 0
  done;
  !best

(* The cubes where the variable [bit] of word [k] can take [value] ([bit]
   for 1, [0] for 0), that variable freed, in order. *)
let cofactor ~w f k bit value =
  let care = Array.make (f.count * w) 0 and pol = Array.make (f.count * w) 0 in
  let lits = Array.make f.count 0 in
  let j = ref 0 in
  for i = 0 to f.count - 1 do
    let c = f.care.((i * w) + k) in
    if c land bit = 0 || f.pol.((i * w) + k) land bit = value then begin
      Array.blit f.care (i * w) care (!j * w) w;
      Array.blit f.pol (i * w) pol (!j * w) w;
      care.((!j * w) + k) <- c land lnot bit;
      pol.((!j * w) + k) <- pol.((!j * w) + k) land lnot bit;
      lits.(!j) <- (if c land bit = 0 then f.lits.(i) else f.lits.(i) - 1);
      incr j
    end
  done;
  { count = !j; care; pol; lits }

(* x . pos + x' . neg, stably sorted by literal count. *)
let attach_merge ~w pos neg k bit =
  let count = pos.count + neg.count in
  let care = Array.make (count * w) 0 and pol = Array.make (count * w) 0 in
  let lits = Array.make count 0 in
  let put j src i value =
    Array.blit src.care (i * w) care (j * w) w;
    Array.blit src.pol (i * w) pol (j * w) w;
    care.((j * w) + k) <- care.((j * w) + k) lor bit;
    pol.((j * w) + k) <- pol.((j * w) + k) lor value;
    lits.(j) <- src.lits.(i) + 1
  in
  let i = ref 0 and l = ref 0 in
  for j = 0 to count - 1 do
    if !l = neg.count || (!i < pos.count && pos.lits.(!i) <= neg.lits.(!l)) then begin
      put j pos !i bit;
      incr i
    end
    else begin
      put j neg !l 0;
      incr l
    end
  done;
  { count; care; pol; lits }

let rec has_universe f i = i < f.count && (f.lits.(i) = 0 || has_universe f (i + 1))

let rec complement_rec ~arity ~w ~pos ~neg f =
  Telemetry.count "complement.nodes";
  if f.count = 0 then universe ~w
  else if has_universe f 0 then empty
  else
    let var = most_binate ~arity ~w ~pos ~neg f in
    if var < 0 then empty
    else begin
      let k = Bits.word_of var and bit = 1 lsl Bits.bit_of var in
      let pos_branch = complement_rec ~arity ~w ~pos ~neg (cofactor ~w f k bit bit) in
      let neg_branch = complement_rec ~arity ~w ~pos ~neg (cofactor ~w f k bit 0) in
      attach_merge ~w pos_branch neg_branch k bit
    end

let complement f =
  Telemetry.span "logic.complement" @@ fun () ->
  let arity = Cover.arity f in
  let w = Bits.words_for arity in
  let cubes = Array.of_list (Cover.cubes f) in
  let words get = Array.init (Array.length cubes * w) (fun x -> get cubes.(x / w) (x mod w)) in
  let flat =
    {
      count = Array.length cubes;
      care = words Cube.care_word;
      pol = words Cube.pol_word;
      lits = Array.map Cube.num_literals cubes;
    }
  in
  let result = complement_rec ~arity ~w ~pos:(Array.make arity 0) ~neg:(Array.make arity 0) flat in
  Cover.create ~arity (List.init result.count (Cube.of_words ~arity result.care result.pol))
