(* An implicant is one int: its dash mask above the [arity] low bits, which
   hold the literal polarities (0 under a dash, keeping the code
   canonical). Numeric order is then (dashes, bits) order. *)

open Mcx_util

let bits_of ~arity code = code land ((1 lsl arity) - 1)
let dashes_of ~arity code = code lsr arity

(* [f] on each minterm of an implicant: its bits joined with every subset
   of its dashes. *)
let iter_minterms ~arity f code =
  let bits = bits_of ~arity code and dashes = dashes_of ~arity code in
  let sub = ref dashes in
  f (bits lor !sub);
  while !sub <> 0 do
    sub := (!sub - 1) land dashes;
    f (bits lor !sub)
  done

(* A growable int buffer. *)
type buffer = { mutable data : int array; mutable len : int }

let buffer () = { data = [||]; len = 0 }

let push b x =
  if b.len = Array.length b.data then begin
    let data = Array.make (max 16 (2 * b.len)) 0 in
    Array.blit b.data 0 data 0 b.len;
    b.data <- data
  end;
  Array.unsafe_set b.data b.len x;
  b.len <- b.len + 1

let rec highest_bit x = if x land (x - 1) = 0 then x else highest_bit (x land (x - 1))

(* Implicants with one dash mask form a group, held as their literal bits.
   A member with a 0 at a free variable merges with the member that has a
   1 there, found through [slot] (indexed by literal bits, -1 when
   absent); whatever merges is not prime. A merge on a variable above
   every dash of the group also makes a member of the wider group. So each
   wider implicant is made once, from its top dash, and each wider group
   is complete when its one parent group is done: the groups form a tree,
   walked depth first, and only the primes need sorting. *)
let prime_codes tt =
  let arity = Truthtable.arity tt in
  let full = (1 lsl arity) - 1 in
  let slot = Array.make (1 lsl arity) (-1) in
  let primes = buffer () in
  let rec group dashes members len =
    for i = 0 to len - 1 do
      slot.(members.(i)) <- i
    done;
    let used = Bytes.make len '\000' in
    let above = if dashes = 0 then full else full land lnot ((highest_bit dashes lsl 1) - 1) in
    let wider = Array.init arity (fun _ -> buffer ()) in
    for i = 0 to len - 1 do
      let bits = members.(i) in
      let free = ref (full land lnot (dashes lor bits)) in
      while !free <> 0 do
        let bit = !free land - !free in
        let j = slot.(bits lor bit) in
        if j >= 0 then begin
          Bytes.unsafe_set used i '\001';
          Bytes.unsafe_set used j '\001';
          if bit land above <> 0 then push wider.(Bits.ctz bit) bits
        end;
        free := !free lxor bit
      done
    done;
    for i = 0 to len - 1 do
      slot.(members.(i)) <- -1;
      if Bytes.unsafe_get used i = '\000' then push primes ((dashes lsl arity) lor members.(i))
    done;
    Array.iteri (fun v b -> if b.len > 0 then group (dashes lor (1 lsl v)) b.data b.len) wider
  in
  let minterms = Array.of_list (Truthtable.minterm_indices tt) in
  group 0 minterms (Array.length minterms);
  let codes = Array.sub primes.data 0 primes.len in
  Array.sort Int.compare codes;
  codes

let cube_of_code ~arity code =
  let bits = bits_of ~arity code and dashes = dashes_of ~arity code in
  Cube.of_literals
    (Array.init arity (fun i ->
         if (dashes lsr i) land 1 = 1 then Literal.Absent
         else if (bits lsr i) land 1 = 1 then Literal.Pos
         else Literal.Neg))

let primes tt =
  Array.to_list (Array.map (cube_of_code ~arity:(Truthtable.arity tt)) (prime_codes tt))

(* The key of the essential-prime table. Its hash fixes the order in which
   the essentials are chosen, which is the order of the cover's last rows,
   so it stays this record. *)
type imp = { bits : int; dashes : int }

let minimize tt =
  Telemetry.span "qm.minimize" @@ fun () ->
  let arity = Truthtable.arity tt in
  let minterms = Array.of_list (Truthtable.minterm_indices tt) in
  let primes = prime_codes tt in
  Telemetry.count ~n:(Array.length minterms) "qm.minterms";
  Telemetry.count ~n:(Array.length primes) "qm.primes";
  let n_minterms = Array.length minterms and n_primes = Array.length primes in
  if n_minterms = 0 then Cover.empty arity
  else begin
    let index = Array.make (1 lsl arity) (-1) in
    Array.iteri (fun i m -> index.(m) <- i) minterms;
    (* The primes covering each minterm, in prime order: minterm i's are
       [covering.(first.(i))] to [covering.(first.(i + 1) - 1)]. *)
    let first = Array.make (n_minterms + 1) 0 in
    Array.iter
      (iter_minterms ~arity (fun m -> first.(index.(m) + 1) <- first.(index.(m) + 1) + 1))
      primes;
    for i = 1 to n_minterms do
      first.(i) <- first.(i) + first.(i - 1)
    done;
    let covering = Array.make first.(n_minterms) 0 in
    let fill = Array.sub first 0 n_minterms in
    Array.iteri
      (fun p ->
        iter_minterms ~arity (fun m ->
            covering.(fill.(index.(m))) <- p;
            fill.(index.(m)) <- fill.(index.(m)) + 1))
      primes;
    (* A pick takes the prime with the most uncovered minterms, then the
       most dashes, then the earliest. [score] folds the first two into one
       int: gain * (arity + 1) + dashes, kept exact as minterms are
       covered. A prime with no gain scores at most [arity]. *)
    let weight = arity + 1 in
    let score =
      Array.map
        (fun code ->
          let d = Bits.popcount (dashes_of ~arity code) in
          ((1 lsl d) * weight) + d)
        primes
    in
    let covered = Bytes.make n_minterms '\000' in
    let uncovered = ref n_minterms in
    let cover m =
      let i = index.(m) in
      if Bytes.unsafe_get covered i = '\000' then begin
        Bytes.unsafe_set covered i '\001';
        decr uncovered;
        for c = first.(i) to first.(i + 1) - 1 do
          let q = covering.(c) in
          score.(q) <- score.(q) - weight
        done
      end
    in
    let chosen = ref [] in
    let choose p =
      chosen := p :: !chosen;
      iter_minterms ~arity cover primes.(p)
    in
    (* Essential primes: minterms covered by exactly one prime, entered in
       ascending minterm order. *)
    let essential = Hashtbl.create 16 in
    for i = 0 to n_minterms - 1 do
      if first.(i + 1) - first.(i) = 1 then begin
        let p = covering.(first.(i)) in
        Hashtbl.replace essential
          { bits = bits_of ~arity primes.(p); dashes = dashes_of ~arity primes.(p) }
          p
      end
    done;
    Hashtbl.iter (fun _ p -> choose p) essential;
    while !uncovered > 0 do
      let best = ref (-1) and best_score = ref arity in
      for p = 0 to n_primes - 1 do
        if Array.unsafe_get score p > !best_score then begin
          best := p;
          best_score := Array.unsafe_get score p
        end
      done;
      choose !best
    done;
    Cover.create ~arity (List.map (fun p -> cube_of_code ~arity primes.(p)) !chosen)
  end
