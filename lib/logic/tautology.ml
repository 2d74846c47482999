(* Unate recursive paradigm (Brayton et al., "Logic Minimization Algorithms
   for VLSI Synthesis", ch. 2): a cover is a tautology iff both Shannon
   cofactors about a binate variable are tautologies; a unate cover is a
   tautology iff it contains the universe cube.

   One kernel serves every arity. Cubes lie flat in two int arrays, cube i
   holding words [i*w, (i+1)*w) of the care and the polarity masks, [w]
   words per cube (the layout of [Cube]). A recursion level owns the
   cubes [lo, hi) of the scratch arrays: it may compact them in place, and
   it writes each cofactor just above them, where the child level owns it
   until it returns. So a check allocates no cube at all. *)

open Mcx_util

type scratch = {
  w : int;
  mutable care : int array;
  mutable pol : int array;
  pos : int array;  (* per-variable occurrence counts, zero between uses *)
  neg : int array;
}

let scratch ~arity =
  let w = Bits.words_for arity in
  {
    w;
    care = Array.make (64 * w) 0;
    pol = Array.make (64 * w) 0;
    pos = Array.make arity 0;
    neg = Array.make arity 0;
  }

(* Make room for [n] more cubes above cube [top]; the cubes below [top]
   are kept. Children may grow the arrays, so callers re-read them. *)
let reserve s ~top n =
  let need = (top + n) * s.w in
  if need > Array.length s.care then begin
    let size = max need (2 * Array.length s.care) in
    let grow a =
      let b = Array.make size 0 in
      Array.blit a 0 b 0 (top * s.w);
      b
    in
    s.care <- grow s.care;
    s.pol <- grow s.pol
  end

(* A tautology covers all 2^n points, so the cube sizes 2^-(literals) must
   sum to at least 1. Sizes are counted in units of 2^-61, rounded up, so
   the sum never under-estimates and the bound stays sound at any arity. *)
let whole = 1 lsl 61

(* Delete every cube with a literal of a unate variable: for such a
   variable, the cover is a tautology iff the cubes free of it are. *)
let drop_unate s lo hi unate =
  let w = s.w and care = s.care and pol = s.pol in
  let j = ref lo in
  for i = lo to hi - 1 do
    let base = i * w in
    let k = ref 0 in
    while !k < w && Array.unsafe_get care (base + !k) land Array.unsafe_get unate !k = 0 do
      incr k
    done;
    if !k = w then begin
      if !j <> i then begin
        Array.blit care base care (!j * w) w;
        Array.blit pol base pol (!j * w) w
      end;
      incr j
    end
  done;
  !j

let rec taut s lo hi =
  hi > lo
  &&
  let w = s.w and care = s.care and pol = s.pol in
  let pos_any = Array.make w 0 and neg_any = Array.make w 0 in
  let universe = ref false and mass = ref 0 in
  for i = lo to hi - 1 do
    let base = i * w in
    let lits = ref 0 in
    for k = 0 to w - 1 do
      let c = Array.unsafe_get care (base + k) and p = Array.unsafe_get pol (base + k) in
      pos_any.(k) <- pos_any.(k) lor p;
      neg_any.(k) <- neg_any.(k) lor (c land lnot p);
      lits := !lits + Bits.popcount c
    done;
    if !lits = 0 then universe := true
    else if !mass < whole then mass := !mass + if !lits <= 61 then whole lsr !lits else 1
  done;
  !universe
  || !mass >= whole
     &&
     let unate = ref false in
     for k = 0 to w - 1 do
       let u = pos_any.(k) lxor neg_any.(k) in
       if u <> 0 then unate := true;
       neg_any.(k) <- u;
       pos_any.(k) <- pos_any.(k) land lnot u
     done;
     (* [neg_any] now holds the unate variables, [pos_any] the binate ones;
        with neither left every cube would be the universe, caught above. *)
     if !unate then taut s lo (drop_unate s lo hi neg_any) else split s lo hi pos_any

(* Shannon expansion about the most binate variable: the largest
   min(positive, negative) occurrence count, then the most occurrences. *)
and split s lo hi binate =
  let w = s.w and care = s.care and pol = s.pol and pos = s.pos and neg = s.neg in
  for i = lo to hi - 1 do
    let base = i * w in
    for k = 0 to w - 1 do
      let m = ref (Array.unsafe_get care (base + k) land binate.(k)) in
      let p = Array.unsafe_get pol (base + k) in
      while !m <> 0 do
        let b = Bits.ctz !m in
        let v = (k * Bits.word_bits) + b in
        if (p lsr b) land 1 = 1 then pos.(v) <- pos.(v) + 1 else neg.(v) <- neg.(v) + 1;
        m := !m land (!m - 1)
      done
    done
  done;
  let best = ref (-1) and best_min = ref (-1) and best_sum = ref (-1) in
  for k = 0 to w - 1 do
    let m = ref binate.(k) in
    while !m <> 0 do
      let v = (k * Bits.word_bits) + Bits.ctz !m in
      let lo_count = min pos.(v) neg.(v) and sum = pos.(v) + neg.(v) in
      if lo_count > !best_min || (lo_count = !best_min && sum > !best_sum) then begin
        best := v;
        best_min := lo_count;
        best_sum := sum
      end;
      pos.(v) <- 0;
      neg.(v) <- 0;
      m := !m land (!m - 1)
    done
  done;
  let k = Bits.word_of !best and bit = 1 lsl Bits.bit_of !best in
  branch s lo hi k bit bit && branch s lo hi k bit 0

(* The cofactor of [lo, hi) where the variable [bit] of word [k] has
   polarity [value] ([bit] for 1, [0] for 0), written above [hi]. *)
and branch s lo hi k bit value =
  let w = s.w in
  reserve s ~top:hi (hi - lo);
  let care = s.care and pol = s.pol in
  let j = ref hi in
  for i = lo to hi - 1 do
    let base = i * w in
    let c = Array.unsafe_get care (base + k) in
    if c land bit = 0 || Array.unsafe_get pol (base + k) land bit = value then begin
      let dst = !j * w in
      for x = 0 to w - 1 do
        Array.unsafe_set care (dst + x) (Array.unsafe_get care (base + x));
        Array.unsafe_set pol (dst + x) (Array.unsafe_get pol (base + x))
      done;
      Array.unsafe_set care (dst + k) (c land lnot bit);
      Array.unsafe_set pol (dst + k) (Array.unsafe_get pol (dst + k) land lnot bit);
      incr j
    end
  done;
  taut s hi !j

type cubes = {
  arity : int;
  count : int;
  care : int array;
  pol : int array;
  on : Bytes.t;
  scratch : scratch;
}

let of_cubes ~arity cubes =
  let s = scratch ~arity in
  let w = s.w and count = List.length cubes in
  let care = Array.make (count * w) 0 and pol = Array.make (count * w) 0 in
  List.iteri
    (fun i c ->
      if Cube.arity c <> arity then invalid_arg "Tautology.of_cubes: arity mismatch";
      for k = 0 to w - 1 do
        care.((i * w) + k) <- Cube.care_word c k;
        pol.((i * w) + k) <- Cube.pol_word c k
      done)
    cubes;
  { arity; count; care; pol; on = Bytes.make count '\001'; scratch = s }

let switch t i on = Bytes.set t.on i (if on then '\001' else '\000')

let absorb t i e =
  if Cube.arity e <> t.arity then invalid_arg "Tautology.absorb: arity mismatch";
  let w = t.scratch.w in
  let ec = Array.init w (Cube.care_word e) and ep = Array.init w (Cube.pol_word e) in
  let absorbed = ref false in
  for j = 0 to t.count - 1 do
    if j <> i && Bytes.unsafe_get t.on j <> '\000' then begin
      let base = j * w in
      let k = ref 0 in
      while
        !k < w
        && Array.unsafe_get ec !k land lnot (Array.unsafe_get t.care (base + !k)) = 0
        && Array.unsafe_get ec !k
           land (Array.unsafe_get ep !k lxor Array.unsafe_get t.pol (base + !k))
           = 0
      do
        incr k
      done;
      if !k = w then begin
        Bytes.unsafe_set t.on j '\000';
        absorbed := true
      end
    end
  done;
  if !absorbed then begin
    Array.blit ec 0 t.care (i * w) w;
    Array.blit ep 0 t.pol (i * w) w;
    Bytes.set t.on i '\001'
  end

(* The switched-on cubes cofactored with respect to [c] (conflicting cubes
   dropped, [c]'s variables freed) go to the bottom of the scratch; [c] is
   covered iff they form a tautology. *)
let covers t c =
  if Cube.arity c <> t.arity then invalid_arg "Tautology.covers: arity mismatch";
  let s = t.scratch in
  let w = s.w in
  let cc = Array.init w (Cube.care_word c) and cp = Array.init w (Cube.pol_word c) in
  reserve s ~top:0 t.count;
  let src_care = t.care and src_pol = t.pol and dst_care = s.care and dst_pol = s.pol in
  let j = ref 0 in
  for i = 0 to t.count - 1 do
    if Bytes.unsafe_get t.on i <> '\000' then begin
      let base = i * w in
      let k = ref 0 in
      while
        !k < w
        && Array.unsafe_get src_care (base + !k)
           land Array.unsafe_get cc !k
           land (Array.unsafe_get src_pol (base + !k) lxor Array.unsafe_get cp !k)
           = 0
      do
        incr k
      done;
      if !k = w then begin
        let dst = !j * w in
        for k = 0 to w - 1 do
          let keep = lnot (Array.unsafe_get cc k) in
          Array.unsafe_set dst_care (dst + k) (Array.unsafe_get src_care (base + k) land keep);
          Array.unsafe_set dst_pol (dst + k) (Array.unsafe_get src_pol (base + k) land keep)
        done;
        incr j
      end
    end
  done;
  taut s 0 !j

let check f =
  covers (of_cubes ~arity:(Cover.arity f) (Cover.cubes f)) (Cube.universe (Cover.arity f))

let cube_covered c f =
  if Cube.arity c <> Cover.arity f then invalid_arg "Tautology.cube_covered: arity mismatch";
  covers (of_cubes ~arity:(Cover.arity f) (Cover.cubes f)) c

let cover_covered f g =
  if Cover.arity f <> Cover.arity g && not (Cover.is_empty f) then
    invalid_arg "Tautology.cube_covered: arity mismatch";
  let packed = of_cubes ~arity:(Cover.arity g) (Cover.cubes g) in
  List.for_all (covers packed) (Cover.cubes f)

let equal f g = cover_covered f g && cover_covered g f
