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

(* The variable of [binate] with the largest min(positive, negative)
   occurrence count in [lo, hi), then the most occurrences, then the
   lowest index. *)
let most_binate s lo hi binate =
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
  !best

(* The cofactor of [lo, hi) where the variable [bit] of word [k] has
   polarity [value] ([bit] for 1, [0] for 0), written above [hi]; returns
   where it ends. *)
let cofactor s lo hi k bit value =
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
     if !unate then taut s lo (drop_unate s lo hi neg_any)
     else begin
       (* Shannon expansion about the most binate variable. *)
       let v = most_binate s lo hi pos_any in
       let k = Bits.word_of v and bit = 1 lsl Bits.bit_of v in
       taut s hi (cofactor s lo hi k bit bit) && taut s hi (cofactor s lo hi k bit 0)
     end

type hull = {
  path_care : int array;
  path_pol : int array;
  sup_care : int array;
  sup_pol : int array;
  mutable found : bool;
}

(* The smallest cube containing the complement of [lo, hi) (SCCC) by the
   same recursion: sccc(F) = supercube(x . sccc(F_x), x' . sccc(F_x')),
   an empty branch dropping out. [h.path_care] and [h.path_pol] hold the
   literals fixed on the way down, and each leaf's cube, with them, joins
   the supercube [h.sup_care] and [h.sup_pol] ([h.found] false while it is
   empty). A leaf is a cover holding the universe cube (empty complement)
   or a unate cover, whose complement's smallest cube fixes the complement
   of each single-literal cube and leaves every other variable free; the
   empty cover is the case with none. Once the supercube has no literal
   left, no leaf can widen it, and the walk stops. *)
let rec sccc s h lo hi =
  if not (h.found && Array.for_all (fun x -> x = 0) h.sup_care) then begin
    let w = s.w and care = s.care and pol = s.pol in
    let pos_any = Array.make w 0 and neg_any = Array.make w 0 in
    let fixed_care = Array.make w 0 and fixed_pol = Array.make w 0 in
    let universe = ref false in
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
      else if !lits = 1 then
        for k = 0 to w - 1 do
          let c = Array.unsafe_get care (base + k) in
          fixed_care.(k) <- fixed_care.(k) lor c;
          fixed_pol.(k) <- fixed_pol.(k) lor (c land lnot (Array.unsafe_get pol (base + k)))
        done
    done;
    let binate = Array.init w (fun k -> pos_any.(k) land neg_any.(k)) in
    if !universe then ()
    else if Array.for_all (fun x -> x = 0) binate then begin
      for k = 0 to w - 1 do
        let c = h.path_care.(k) lor fixed_care.(k) and p = h.path_pol.(k) lor fixed_pol.(k) in
        if h.found then begin
          h.sup_care.(k) <- h.sup_care.(k) land c land lnot (h.sup_pol.(k) lxor p);
          h.sup_pol.(k) <- h.sup_pol.(k) land h.sup_care.(k)
        end
        else begin
          h.sup_care.(k) <- c;
          h.sup_pol.(k) <- p
        end
      done;
      h.found <- true
    end
    else begin
      let v = most_binate s lo hi binate in
      let k = Bits.word_of v and bit = 1 lsl Bits.bit_of v in
      h.path_care.(k) <- h.path_care.(k) lor bit;
      h.path_pol.(k) <- h.path_pol.(k) lor bit;
      sccc s h hi (cofactor s lo hi k bit bit);
      h.path_pol.(k) <- h.path_pol.(k) land lnot bit;
      sccc s h hi (cofactor s lo hi k bit 0);
      h.path_care.(k) <- h.path_care.(k) land lnot bit
    end
  end

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

let set t i c =
  if Cube.arity c <> t.arity then invalid_arg "Tautology.set: arity mismatch";
  let w = t.scratch.w in
  for k = 0 to w - 1 do
    t.care.((i * w) + k) <- Cube.care_word c k;
    t.pol.((i * w) + k) <- Cube.pol_word c k
  done

(* The switched-on cubes cofactored with respect to the cube [cc], [cp]
   (conflicting cubes dropped, its variables freed) go to the bottom of the
   scratch; returns how many there are. *)
let cofactor_on t cc cp =
  let s = t.scratch in
  let w = s.w in
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
  !j

let words name t c =
  if Cube.arity c <> t.arity then invalid_arg ("Tautology." ^ name ^ ": arity mismatch");
  let w = t.scratch.w in
  (Array.init w (Cube.care_word c), Array.init w (Cube.pol_word c))

(* [c] is covered iff its cofactor of the cubes switched on is a
   tautology. *)
let covers t c =
  let cc, cp = words "covers" t c in
  taut t.scratch 0 (cofactor_on t cc cp)

(* The points of [c] the cubes switched on miss are [c] times the
   complement of their cofactor, which is free of [c]'s variables. *)
let hull t c =
  let cc, cp = words "hull" t c in
  let w = t.scratch.w in
  let h =
    {
      path_care = Array.make w 0;
      path_pol = Array.make w 0;
      sup_care = Array.make w 0;
      sup_pol = Array.make w 0;
      found = false;
    }
  in
  sccc t.scratch h 0 (cofactor_on t cc cp);
  if not h.found then None
  else
    let join a b = Array.init w (fun k -> a.(k) lor b.(k)) in
    Some (Cube.of_words ~arity:t.arity (join cc h.sup_care) (join cp h.sup_pol) 0)

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
