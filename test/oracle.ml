(* Differential test oracle: the packed kernels (Cube's word masks,
   bit-packed Bmatrix) against the naive reference implementations in
   naive.ml, on seeded randomized inputs.

   Arities are drawn from 1..80 so every suite crosses the packed-word
   boundary (63 variables per native word) as well as the one-word fast
   path.  Each op gets >= 1000 random cases. *)

open Mcx_logic

let seed = 0xC0FFEE
let cases_per_op = 1200
let max_arity = 80

let prng_for name = Mcx_util.Prng.(of_key (Key.string (Key.root seed) name))

let lit_of_int = function 0 -> Literal.Neg | 1 -> Literal.Pos | _ -> Literal.Absent

(* Random naive cube; [absent_bias] is the probability a variable is free. *)
let random_lits prng ~arity ~absent_bias =
  Array.init arity (fun _ ->
      if Mcx_util.Prng.bernoulli prng absent_bias then Literal.Absent
      else lit_of_int (Mcx_util.Prng.int prng 2))

let random_arity prng = 1 + Mcx_util.Prng.int prng max_arity

(* A pair biased toward interesting relations: sometimes b is a specialized
   copy of a (so covers/intersect hit the true branch), sometimes an
   adjacent cube (so merge succeeds), otherwise independent. *)
let random_pair prng ~arity =
  let a = random_lits prng ~arity ~absent_bias:0.5 in
  match Mcx_util.Prng.int prng 4 with
  | 0 ->
    (* specialize: fill some of a's absent positions *)
    let b = Array.copy a in
    Array.iteri
      (fun i l ->
        if Literal.equal l Literal.Absent && Mcx_util.Prng.bernoulli prng 0.5 then
          b.(i) <- lit_of_int (Mcx_util.Prng.int prng 2))
      a;
    (a, b)
  | 1 ->
    (* adjacent: flip exactly one constrained literal when one exists *)
    let b = Array.copy a in
    let constrained =
      Array.to_list (Array.mapi (fun i l -> (i, l)) a)
      |> List.filter (fun (_, l) -> not (Literal.equal l Literal.Absent))
    in
    (match constrained with
    | [] -> (a, b)
    | _ ->
      let k, l =
        List.nth constrained (Mcx_util.Prng.int prng (List.length constrained))
      in
      b.(k) <- Literal.complement l;
      (a, b))
  | _ -> (a, random_lits prng ~arity ~absent_bias:0.5)

let check_cube = Alcotest.testable Cube.pp Cube.equal
let check_cube_opt = Alcotest.option check_cube

let lits_equal a b =
  Array.length a = Array.length b && Array.for_all2 Literal.equal a b

(* ------------------------------------------------------------------ *)
(* Cube ops vs the naive reference                                     *)
(* ------------------------------------------------------------------ *)

let test_covers () =
  let prng = prng_for "covers" in
  for _ = 1 to cases_per_op do
    let arity = random_arity prng in
    let a, b = random_pair prng ~arity in
    let expected = Naive.covers a b in
    let got = Cube.covers (Naive.of_cube a) (Naive.of_cube b) in
    if got <> expected then
      Alcotest.failf "covers %s %s: packed %b, reference %b"
        (Cube.to_string (Naive.of_cube a))
        (Cube.to_string (Naive.of_cube b))
        got expected
  done

let test_intersect () =
  let prng = prng_for "intersect" in
  for _ = 1 to cases_per_op do
    let arity = random_arity prng in
    let a, b = random_pair prng ~arity in
    let expected = Option.map Naive.of_cube (Naive.intersect a b) in
    let got = Cube.intersect (Naive.of_cube a) (Naive.of_cube b) in
    Alcotest.check check_cube_opt "intersect" expected got
  done

let test_distance_supercube () =
  let prng = prng_for "distance" in
  for _ = 1 to cases_per_op do
    let arity = random_arity prng in
    let a, b = random_pair prng ~arity in
    let pa = Naive.of_cube a and pb = Naive.of_cube b in
    Alcotest.(check int) "distance" (Naive.distance a b) (Cube.distance pa pb);
    Alcotest.check check_cube "supercube"
      (Naive.of_cube (Naive.supercube a b))
      (Cube.supercube pa pb)
  done

let test_merge_adjacent () =
  let prng = prng_for "merge" in
  for _ = 1 to cases_per_op do
    let arity = random_arity prng in
    let a, b = random_pair prng ~arity in
    let expected = Option.map Naive.of_cube (Naive.merge_adjacent a b) in
    let got = Cube.merge_adjacent (Naive.of_cube a) (Naive.of_cube b) in
    Alcotest.check check_cube_opt "merge_adjacent" expected got
  done

let test_cofactor () =
  let prng = prng_for "cofactor" in
  for _ = 1 to cases_per_op do
    let arity = random_arity prng in
    let c = random_lits prng ~arity ~absent_bias:0.4 in
    let var = Mcx_util.Prng.int prng arity in
    let value = Mcx_util.Prng.bool prng in
    let expected = Option.map Naive.of_cube (Naive.cofactor c ~var ~value) in
    let got = Cube.cofactor (Naive.of_cube c) ~var ~value in
    Alcotest.check check_cube_opt "cofactor" expected got
  done

let test_cofactor_wrt () =
  let prng = prng_for "cofactor_wrt" in
  for _ = 1 to cases_per_op do
    let arity = random_arity prng in
    let g, c = random_pair prng ~arity in
    let expected = Option.map Naive.of_cube (Naive.cofactor_wrt g c) in
    let got = Cube.cofactor_wrt (Naive.of_cube g) (Naive.of_cube c) in
    Alcotest.check check_cube_opt "cofactor_wrt" expected got
  done

let test_eval () =
  let prng = prng_for "eval" in
  for _ = 1 to cases_per_op do
    let arity = random_arity prng in
    let c = random_lits prng ~arity ~absent_bias:0.6 in
    let v = Array.init arity (fun _ -> Mcx_util.Prng.bool prng) in
    Alcotest.(check bool) "eval" (Naive.eval c v) (Cube.eval (Naive.of_cube c) v);
    let packed_v = Cube.pack_assignment v in
    Alcotest.(check bool) "eval_packed" (Naive.eval c v)
      (Cube.eval_packed (Naive.of_cube c) packed_v)
  done

let test_roundtrip_and_counts () =
  let prng = prng_for "roundtrip" in
  for _ = 1 to cases_per_op do
    let arity = random_arity prng in
    let lits = random_lits prng ~arity ~absent_bias:0.5 in
    let c = Naive.of_cube lits in
    if not (lits_equal lits (Naive.to_cube c)) then
      Alcotest.fail "to_cube . of_cube <> id";
    Alcotest.check check_cube "of_string . to_string" c
      (Cube.of_string (Cube.to_string c));
    Alcotest.(check int) "num_literals" (Naive.num_literals lits) (Cube.num_literals c);
    let expected_literals =
      List.filteri
        (fun _ (_, l) -> not (Literal.equal l Literal.Absent))
        (Array.to_list (Array.mapi (fun i l -> (i, l)) lits))
    in
    let got = Cube.literals c in
    if
      List.length got <> List.length expected_literals
      || not
           (List.for_all2
              (fun (i, l) (j, m) -> i = j && Literal.equal l m)
              expected_literals got)
    then Alcotest.failf "literals mismatch on %s" (Cube.to_string c)
  done

(* compare must order cubes exactly as the pre-packed representation did:
   shorter arity first, then lexicographic by variable with
   Neg < Pos < Absent. *)
let naive_compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else begin
    let rec go i =
      if i = la then 0
      else
        let c = Literal.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  end

let sign x = Stdlib.compare x 0

let test_compare_equal () =
  let prng = prng_for "compare" in
  for _ = 1 to cases_per_op do
    let arity = random_arity prng in
    let a, b = random_pair prng ~arity in
    let pa = Naive.of_cube a and pb = Naive.of_cube b in
    Alcotest.(check int) "compare sign" (sign (naive_compare a b))
      (sign (Cube.compare pa pb));
    Alcotest.(check bool) "equal" (lits_equal a b) (Cube.equal pa pb);
    Alcotest.(check int) "compare self" 0 (Cube.compare pa pa)
  done

let test_tautology () =
  let prng = prng_for "tautology" in
  let tautologies = ref 0 in
  for _ = 1 to 1000 do
    let arity = 1 + Mcx_util.Prng.int prng max_arity in
    (* Small covers of wide cubes keep the naive recursion tractable while
       still producing genuine tautologies at small arity. *)
    let n_cubes = 1 + Mcx_util.Prng.int prng 8 in
    let wide = min arity 6 in
    let cubes =
      List.init n_cubes (fun _ ->
          let lits = Array.make arity Literal.Absent in
          let constrained = 1 + Mcx_util.Prng.int prng wide in
          for _ = 1 to constrained do
            lits.(Mcx_util.Prng.int prng arity) <- lit_of_int (Mcx_util.Prng.int prng 2)
          done;
          lits)
    in
    let expected = Naive.tautology ~arity cubes in
    if expected then incr tautologies;
    let cover = Cover.create ~arity (List.map Naive.of_cube cubes) in
    if Tautology.check cover <> expected then
      Alcotest.failf "tautology mismatch (arity %d): reference %b" arity expected
  done;
  (* the generator must exercise both outcomes *)
  if !tautologies = 0 then Alcotest.fail "tautology generator produced no tautologies"

let test_cover_containment () =
  let prng = prng_for "containment" in
  for _ = 1 to 1000 do
    let arity = random_arity prng in
    let n_cubes = 1 + Mcx_util.Prng.int prng 10 in
    let cubes = List.init n_cubes (fun _ -> random_lits prng ~arity ~absent_bias:0.6) in
    let expected = List.map Naive.of_cube (Naive.single_cube_containment cubes) in
    let got =
      Cover.cubes
        (Cover.single_cube_containment
           (Cover.create ~arity (List.map Naive.of_cube cubes)))
    in
    Alcotest.(check (list check_cube)) "single_cube_containment" expected got
  done

(* ------------------------------------------------------------------ *)
(* Word kernels: popcount / ctz                                        *)
(* ------------------------------------------------------------------ *)

let test_bits () =
  let prng = prng_for "bits" in
  let slow_pop x =
    let n = ref 0 in
    for b = 0 to Sys.int_size - 1 do
      if (x lsr b) land 1 = 1 then incr n
    done;
    !n
  in
  let check x =
    Alcotest.(check int) "popcount" (slow_pop x) (Mcx_util.Bits.popcount x);
    if x <> 0 then begin
      let t = Mcx_util.Bits.ctz x in
      if (x lsr t) land 1 <> 1 || x land ((1 lsl t) - 1) <> 0 then
        Alcotest.failf "ctz %d wrong for %x" t x
    end
  in
  List.iter check [ 0; 1; 2; 3; max_int; min_int; -1; 1 lsl 62; min_int lor 1 ];
  for _ = 1 to 2000 do
    check (Int64.to_int (Mcx_util.Prng.bits64 prng))
  done

(* ------------------------------------------------------------------ *)
(* Bmatrix vs bool array array                                         *)
(* ------------------------------------------------------------------ *)

let test_bmatrix () =
  let prng = prng_for "bmatrix" in
  for _ = 1 to 1000 do
    let rows = 1 + Mcx_util.Prng.int prng 5 in
    let cols = 1 + Mcx_util.Prng.int prng max_arity in
    let density = 0.1 +. (0.8 *. Mcx_util.Prng.float prng) in
    let mk () =
      Array.init rows (fun _ ->
          Array.init cols (fun _ -> Mcx_util.Prng.bernoulli prng density))
    in
    let a = mk () and b = mk () in
    let pa = Naive.of_bmatrix a and pb = Naive.of_bmatrix b in
    let i = Mcx_util.Prng.int prng rows and j = Mcx_util.Prng.int prng rows in
    let k = Mcx_util.Prng.int prng cols in
    Alcotest.(check bool) "get" a.(i).(k) (Mcx_util.Bmatrix.get pa i k);
    let total = Array.fold_left (fun n r -> n + Naive.row_count [| r |] 0) 0 a in
    Alcotest.(check int) "count" total (Mcx_util.Bmatrix.count pa);
    Alcotest.(check int) "count_row" (Naive.row_count a i) (Mcx_util.Bmatrix.count_row pa i);
    Alcotest.(check bool) "row_subset" (Naive.row_subset a i b j)
      (Mcx_util.Bmatrix.row_subset pa i pb j);
    Alcotest.(check bool) "row_intersects" (Naive.row_intersects a i b j)
      (Mcx_util.Bmatrix.row_intersects pa i pb j);
    let cells iter =
      let seen = ref [] in
      iter pa i (fun c -> seen := c :: !seen);
      List.rev !seen
    in
    let where v = List.filter (fun c -> Bool.equal a.(i).(c) v) (List.init cols Fun.id) in
    Alcotest.(check (list int)) "iter_row_set" (where true) (cells Mcx_util.Bmatrix.iter_row_set);
    Alcotest.(check (list int)) "iter_row_clear" (where false)
      (cells Mcx_util.Bmatrix.iter_row_clear);
    Alcotest.(check bool) "nor" true
      (Mcx_util.Bmatrix.equal (Mcx_util.Bmatrix.nor pa pb)
         (Naive.of_bmatrix (Array.map2 (Array.map2 (fun x y -> not (x || y))) a b)));
    (* mutation round-trip *)
    Mcx_util.Bmatrix.set pa i k (not a.(i).(k));
    Alcotest.(check bool) "set/get" (not a.(i).(k)) (Mcx_util.Bmatrix.get pa i k);
    Alcotest.(check bool) "equal after set" false
      (Mcx_util.Bmatrix.equal pa (Naive.of_bmatrix a));
    Mcx_util.Bmatrix.set pa i k a.(i).(k);
    Alcotest.(check bool) "equal restored" true
      (Mcx_util.Bmatrix.equal pa (Naive.of_bmatrix a))
  done

(* ------------------------------------------------------------------ *)
(* Hash: packed-word hashing, no per-call string                       *)
(* ------------------------------------------------------------------ *)

let test_hash_collisions () =
  let prng = prng_for "hash" in
  let seen = Hashtbl.create 4096 in
  let hashes = Hashtbl.create 4096 in
  let distinct = ref 0 and collisions = ref 0 in
  for _ = 1 to 50_000 do
    let arity = random_arity prng in
    let c = Naive.of_cube (random_lits prng ~arity ~absent_bias:0.5) in
    let key = string_of_int arity ^ ":" ^ Cube.to_string c in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      incr distinct;
      let h = Cube.hash c in
      (* equal cubes must agree, however they were built *)
      Alcotest.(check int) "hash stable" h (Cube.hash (Cube.of_string (Cube.to_string c)));
      if Hashtbl.mem hashes h then incr collisions else Hashtbl.replace hashes h ()
    end
  done;
  (* 62-bit hashes over < 2^16 distinct cubes: any collision at all would be
     a red flag for the mixer. Allow 2 as slack. *)
  if !collisions > 2 then
    Alcotest.failf "Cube.hash: %d collisions over %d distinct cubes" !collisions !distinct

(* ------------------------------------------------------------------ *)
(* Truth-table oracle: Qm / Minimize semantic equivalence              *)
(* ------------------------------------------------------------------ *)

let assert_equivalent ~what ~arity reference candidate =
  let v = Array.make arity false in
  for idx = 0 to (1 lsl arity) - 1 do
    for i = 0 to arity - 1 do
      v.(i) <- (idx lsr i) land 1 = 1
    done;
    if Cover.eval candidate v <> reference idx then
      Alcotest.failf "%s: differs from input on assignment %d (arity %d)" what idx arity
  done

let test_qm_minimize_oracle () =
  let prng = prng_for "qm" in
  for arity = 1 to 12 do
    let sops = if arity <= 8 then 10 else 4 in
    for _ = 1 to sops do
      (* Bias to short-ish cubes at small arity, near-minterms at high
         arity, keeping the ON-set (and the QM prime lattice) tractable. *)
      let literal_probability = if arity <= 8 then 0.5 else 0.85 in
      let params =
        {
          Random_sop.n_inputs = arity;
          n_products = 1 + Mcx_util.Prng.int prng (2 * arity);
          literal_probability;
        }
      in
      let f = Random_sop.random_cover prng params in
      let tt = Truthtable.of_cover f in
      let reference idx = Truthtable.get tt idx in
      assert_equivalent ~what:"Qm.minimize" ~arity reference (Qm.minimize tt);
      assert_equivalent ~what:"Minimize.espresso" ~arity reference
        (Minimize.espresso ~off:(Complement.complement f) f)
    done
  done

(* --- Qm against its former implementation (test/qm_reference.ml) ---

   The minimizer's cube order reaches function-matrix row order, and with
   it HBA, tech mapping and the goldens, so the new cover must match the
   old one cube for cube, in order. The old greedy cover rescans every
   prime for each pick: a dense 10-variable table costs it about half a
   second, a dense 12-variable one minutes, so dense tables stop at 10
   variables and are rare there. *)

let random_table seed =
  let prng = Mcx_util.Prng.create seed in
  let pick = Mcx_util.Prng.int prng 20 in
  let arity, on_bias =
    if pick < 12 then (Mcx_util.Prng.int prng 9, 0.2 +. (0.6 *. Mcx_util.Prng.float prng))
    else if pick < 15 then (9, 0.2 +. (0.6 *. Mcx_util.Prng.float prng))
    else if pick < 16 then (10, 0.2 +. (0.6 *. Mcx_util.Prng.float prng))
    else (11 + Mcx_util.Prng.int prng 2, 0.005 +. (0.04 *. Mcx_util.Prng.float prng))
  in
  Truthtable_helper.random prng ~arity ~on_bias

let same_cubes a b = List.equal String.equal (List.map Cube.to_string a) (List.map Cube.to_string b)

let prop_qm_matches_reference =
  QCheck2.Test.make ~name:"Qm.minimize and Qm.primes match the reference" ~count:60
    ~print:string_of_int
    QCheck2.Gen.(int_bound 0x3FFFFFFF)
    (fun seed ->
      let tt = random_table seed in
      same_cubes (Cover.cubes (Qm.minimize tt)) (Cover.cubes (Qm_reference.minimize tt))
      && same_cubes (Qm.primes tt) (Qm_reference.primes tt))

let test_qm_suite_reference () =
  let module Suite = Mcx_benchmarks.Suite in
  List.iter
    (fun (b : Suite.t) ->
      match b.source with
      | Suite.Arithmetic _ when b.inputs <= 12 ->
        let cover = Suite.cover b in
        for k = 0 to Mo_cover.n_outputs cover - 1 do
          let tt = Truthtable.of_cover (Mo_cover.output_cover cover k) in
          List.iter
            (fun (what, tt) ->
              if
                not
                  (same_cubes (Cover.cubes (Qm.minimize tt))
                     (Cover.cubes (Qm_reference.minimize tt)))
              then Alcotest.failf "%s output %d%s: Qm differs from the reference" b.name k what)
            [ ("", tt); (" complement", Truthtable.complement tt) ]
        done
      | Suite.Arithmetic _ | Suite.Synthetic _ -> ())
    Suite.all

(* --- Tautology across the word boundary, against a truth table ---

   Covers of 56 to 72 variables whose literals lie on at most ten
   variables drawn near bit 63, so cubes span one or two words while the
   truth table over those variables stays small. A random Shannon tree
   gives a tautology; dropping a cube, narrowing one or adding random ones
   gives near misses. *)

let straddling_case seed =
  let prng = Mcx_util.Prng.create seed in
  let int = Mcx_util.Prng.int prng in
  let arity = 56 + int 17 in
  let lo = max 0 (arity - 16) in
  let support =
    Array.of_list
      (List.sort_uniq Int.compare (List.init (1 + int 10) (fun _ -> lo + int (arity - lo))))
  in
  let literal () = if int 2 = 0 then Literal.Pos else Literal.Neg in
  let cube_of fixed =
    let lits = Array.make arity Literal.Absent in
    List.iter (fun (v, l) -> lits.(v) <- l) fixed;
    lits
  in
  let random_cube () =
    cube_of
      (List.filter_map
         (fun v -> if int 3 = 0 then Some (v, literal ()) else None)
         (Array.to_list support))
  in
  let rec tree depth fixed =
    let free = List.filter (fun v -> not (List.mem_assoc v fixed)) (Array.to_list support) in
    if depth = 0 || free = [] || int 10 < 3 then [ cube_of fixed ]
    else
      let v = List.nth free (int (List.length free)) in
      tree (depth - 1) ((v, Literal.Pos) :: fixed) @ tree (depth - 1) ((v, Literal.Neg) :: fixed)
  in
  let cubes = tree (1 + int 6) [] in
  let cubes =
    match int 4 with
    | 0 ->
      let drop = int (List.length cubes) in
      List.filteri (fun i _ -> i <> drop) cubes
    | 1 ->
      let narrow = List.nth cubes (int (List.length cubes)) in
      narrow.(support.(int (Array.length support))) <- literal ();
      cubes
    | _ -> cubes
  in
  let cubes = List.init (int 4) (fun _ -> random_cube ()) @ cubes in
  (arity, support, List.map Cube.of_literals cubes, Cube.of_literals (random_cube ()))

(* Every assignment of the support variables, the rest held at 0. *)
let for_all_points ~arity support f =
  let v = Array.make arity false in
  let rec go idx =
    idx = 1 lsl Array.length support
    || begin
         Array.iteri (fun i var -> v.(var) <- (idx lsr i) land 1 = 1) support;
         f v && go (idx + 1)
       end
  in
  go 0

let prop_tautology_straddles_word =
  QCheck2.Test.make ~name:"tautology and sweeps agree with a truth table across bit 63"
    ~count:300 ~print:string_of_int
    QCheck2.Gen.(int_bound 0x3FFFFFFF)
    (fun seed ->
      let arity, support, cubes, query = straddling_case seed in
      let covered_by on v = List.exists (fun c -> Cube.eval c v) on in
      let taut = for_all_points ~arity support (covered_by cubes) in
      (* A sweep with every third cube switched off. *)
      let is_off i = i mod 3 = seed mod 3 in
      let sweep = Tautology.of_cubes ~arity cubes in
      List.iteri (fun i _ -> if is_off i then Tautology.switch sweep i false) cubes;
      let on = List.filteri (fun i _ -> not (is_off i)) cubes in
      let query_covered =
        for_all_points ~arity support (fun v -> (not (Cube.eval query v)) || covered_by on v)
      in
      let before = Tautology.covers sweep query in
      (* Grow the first cube switched on as far as the sweep allows and set
         it in place: the function, and so the answer, must not move. *)
      (match List.find_opt (fun i -> not (is_off i)) (List.init (List.length cubes) Fun.id) with
      | None -> ()
      | Some i ->
        let grown = ref (List.nth cubes i) in
        for v = 0 to arity - 1 do
          let raised = Cube.set !grown v Literal.Absent in
          if Tautology.covers sweep raised then grown := raised
        done;
        Tautology.set sweep i !grown);
      Bool.equal (Tautology.check (Cover.create ~arity cubes)) taut
      && Bool.equal before query_covered
      && Bool.equal (Tautology.covers sweep query) query_covered
      && Bool.equal (Tautology.cube_covered query (Cover.create ~arity on)) query_covered)

(* --- Complement against its former list implementation ---

   [Minimize.complement_minimized] hands the complement's cube list to
   espresso, so the flat-array version must return the same cubes in the
   same order: Fig. 6's random SOPs up to 15 inputs, covers straddling
   bit 63, and every output of the Suite circuits above 14 inputs. *)

let prop_complement_matches_reference =
  QCheck2.Test.make ~name:"Complement matches the reference" ~count:150 ~print:string_of_int
    QCheck2.Gen.(int_bound 0x3FFFFFFF)
    (fun seed ->
      let f =
        if seed land 1 = 0 then
          let prng = Mcx_util.Prng.create seed in
          let n_inputs = 1 + Mcx_util.Prng.int prng 15 in
          Random_sop.random_cover prng (Random_sop.paper_params prng ~n_inputs)
        else
          let arity, _, cubes, _ = straddling_case seed in
          Cover.create ~arity cubes
      in
      same_cubes (Cover.cubes (Complement.complement f))
        (Cover.cubes (Complement_reference.complement f)))

let test_complement_suite_reference () =
  let module Suite = Mcx_benchmarks.Suite in
  List.iter
    (fun (b : Suite.t) ->
      if b.inputs > 14 then begin
        let cover = Suite.cover b in
        for k = 0 to Mo_cover.n_outputs cover - 1 do
          let f = Mo_cover.output_cover cover k in
          if
            not
              (same_cubes (Cover.cubes (Complement.complement f))
                 (Cover.cubes (Complement_reference.complement f)))
          then Alcotest.failf "%s output %d: Complement differs from the reference" b.name k
        done
      end)
    Suite.all

(* --- Minimization against its former implementation
   (test/minimize_reference.ml) ---

   Espresso expands against the OFF-set and reduces by the kernel's hull
   query, and joint minimization reads truth tables. Every answer these
   replace is a property of the function, and the smallest cube containing
   a set is unique, so the covers must match the old ones cube for cube,
   in order. *)

let fig6_sop seed ~max_inputs =
  let prng = Mcx_util.Prng.create seed in
  let n_inputs = 1 + Mcx_util.Prng.int prng max_inputs in
  Random_sop.random_cover prng (Random_sop.paper_params prng ~n_inputs)

let prop_complement_minimized_matches_reference =
  QCheck2.Test.make ~name:"complement_minimized matches the reference" ~count:150
    ~print:string_of_int
    QCheck2.Gen.(int_bound 0x3FFFFFFF)
    (fun seed ->
      let f =
        if seed land 1 = 0 then fig6_sop seed ~max_inputs:18
        else
          let arity, _, cubes, _ = straddling_case seed in
          Cover.create ~arity cubes
      in
      same_cubes (Cover.cubes (Minimize.complement_minimized f))
        (Cover.cubes (Minimize_reference.complement_minimized f)))

let test_complement_minimized_suite_reference () =
  let module Suite = Mcx_benchmarks.Suite in
  List.iter
    (fun name ->
      let cover = Suite.cover (Suite.find name) in
      for k = 0 to Mo_cover.n_outputs cover - 1 do
        let f = Mo_cover.output_cover cover k in
        if
          not
            (same_cubes (Cover.cubes (Minimize.complement_minimized f))
               (Cover.cubes (Minimize_reference.complement_minimized f)))
        then Alcotest.failf "%s output %d: complement_minimized differs from the reference" name k
      done)
    [ "b12"; "t481"; "cordic" ]

(* The hull of what the cubes switched on miss of a query, against the
   supercube of the complement of their cofactor: on a Fig. 6 SOP with
   one cube switched off and queried, as reduce asks, and on covers
   straddling bit 63, many of them tautologies. *)
let prop_hull_matches_complement =
  QCheck2.Test.make ~name:"hull is the supercube of the complement" ~count:400
    ~print:string_of_int
    QCheck2.Gen.(int_bound 0x3FFFFFFF)
    (fun seed ->
      let arity, cubes, off, query =
        if seed mod 3 = 0 then begin
          let f = fig6_sop seed ~max_inputs:15 in
          let cubes = Cover.cubes f in
          let i = seed / 3 mod List.length cubes in
          (Cover.arity f, cubes, (fun j -> j = i), List.nth cubes i)
        end
        else
          let arity, _, cubes, query = straddling_case seed in
          (arity, cubes, (fun j -> j mod 3 = seed mod 3), query)
      in
      let sweep = Tautology.of_cubes ~arity cubes in
      List.iteri (fun i _ -> if off i then Tautology.switch sweep i false) cubes;
      let on = List.filteri (fun i _ -> not (off i)) cubes in
      let cofactor = Cover.create ~arity (List.filter_map (fun g -> Cube.cofactor_wrt g query) on) in
      let expected =
        match Cover.cubes (Complement.complement cofactor) with
        | [] -> None
        | first :: rest -> Cube.intersect query (List.fold_left Cube.supercube first rest)
      in
      Option.equal Cube.equal (Tautology.hull sweep query) expected)

(* [complement_minimized f] is f's complement: f + g covers everything
   and no cube of g meets f. *)
let prop_complement_minimized_is_complement =
  QCheck2.Test.make ~name:"complement_minimized is the complement at 15-18 inputs" ~count:40
    ~print:string_of_int
    QCheck2.Gen.(int_bound 0x3FFFFFFF)
    (fun seed ->
      let prng = Mcx_util.Prng.create seed in
      let n_inputs = 15 + Mcx_util.Prng.int prng 4 in
      let f = Random_sop.random_cover prng (Random_sop.paper_params prng ~n_inputs) in
      let g = Minimize.complement_minimized f in
      Tautology.check (Cover.union f g)
      && List.for_all
           (fun a -> List.for_all (fun b -> Option.is_none (Cube.intersect a b)) (Cover.cubes g))
           (Cover.cubes f))

let same_rows a b =
  List.equal
    (fun (r : Mo_cover.row) (q : Mo_cover.row) ->
      Cube.equal r.cube q.cube && Array.for_all2 Bool.equal r.outputs q.outputs)
    (Mo_cover.rows a) (Mo_cover.rows b)

let prop_joint_matches_reference =
  QCheck2.Test.make ~name:"minimize_joint matches the reference" ~count:300
    ~print:string_of_int
    QCheck2.Gen.(int_bound 0x3FFFFFFF)
    (fun seed ->
      let prng = Mcx_util.Prng.create seed in
      let n_inputs = 1 + Mcx_util.Prng.int prng 9 and n_outputs = 1 + Mcx_util.Prng.int prng 4 in
      let output _ =
        Random_sop.random_cover prng
          {
            Random_sop.n_inputs;
            n_products = 1 + Mcx_util.Prng.int prng (2 * n_inputs);
            literal_probability = 0.3 +. (0.6 *. Mcx_util.Prng.float prng);
          }
      in
      let mo = Mo_cover.of_covers (List.init n_outputs output) in
      same_rows (Mo_minimize.minimize_joint mo) (Minimize_reference.minimize_joint mo))

(* The joint pass of every Suite circuit built by it, on its production
   input: each output's QM cover. *)
let test_joint_suite_reference () =
  let module Suite = Mcx_benchmarks.Suite in
  List.iter
    (fun (b : Suite.t) ->
      match b.source with
      | Suite.Arithmetic _ when b.inputs <= 9 ->
        let cover = Suite.cover b in
        let qm k = Qm.minimize (Truthtable.of_cover (Mo_cover.output_cover cover k)) in
        let input = Mo_cover.of_covers (List.init (Mo_cover.n_outputs cover) qm) in
        let joint = Mo_minimize.minimize_joint input in
        if not (same_rows joint cover) then Alcotest.failf "%s: not its Suite cover" b.name;
        if not (same_rows joint (Minimize_reference.minimize_joint input)) then
          Alcotest.failf "%s: minimize_joint differs from the reference" b.name
      | Suite.Arithmetic _ | Suite.Synthetic _ -> ())
    Suite.all

let () =
  Alcotest.run "oracle"
    [
      ( "cube vs reference",
        [
          Alcotest.test_case "covers" `Quick test_covers;
          Alcotest.test_case "intersect" `Quick test_intersect;
          Alcotest.test_case "distance & supercube" `Quick test_distance_supercube;
          Alcotest.test_case "merge_adjacent" `Quick test_merge_adjacent;
          Alcotest.test_case "cofactor" `Quick test_cofactor;
          Alcotest.test_case "cofactor_wrt" `Quick test_cofactor_wrt;
          Alcotest.test_case "eval" `Quick test_eval;
          Alcotest.test_case "roundtrip & counts" `Quick test_roundtrip_and_counts;
          Alcotest.test_case "compare & equal" `Quick test_compare_equal;
        ] );
      ( "cover vs reference",
        [
          Alcotest.test_case "tautology" `Quick test_tautology;
          Alcotest.test_case "single_cube_containment" `Quick test_cover_containment;
        ] );
      ( "words",
        [
          Alcotest.test_case "popcount & ctz" `Quick test_bits;
          Alcotest.test_case "bmatrix vs reference" `Quick test_bmatrix;
          Alcotest.test_case "hash collisions" `Quick test_hash_collisions;
        ] );
      ( "truth-table oracle",
        [ Alcotest.test_case "Qm & Minimize equivalence" `Quick test_qm_minimize_oracle ] );
      ( "exact outputs",
        [
          Alcotest.test_case "Qm on Suite arithmetic outputs and complements" `Quick
            test_qm_suite_reference;
          Alcotest.test_case "Complement on Suite outputs above 14 inputs" `Quick
            test_complement_suite_reference;
          Alcotest.test_case "complement_minimized on b12, t481 and cordic" `Quick
            test_complement_minimized_suite_reference;
          Alcotest.test_case "minimize_joint on Suite arithmetic circuits" `Quick
            test_joint_suite_reference;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              prop_qm_matches_reference;
              prop_tautology_straddles_word;
              prop_complement_matches_reference;
              prop_complement_minimized_matches_reference;
              prop_hull_matches_complement;
              prop_complement_minimized_is_complement;
              prop_joint_matches_reference;
            ] );
    ]
