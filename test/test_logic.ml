open Mcx_logic

(* ------------------------------------------------------------------ *)
(* Literal                                                            *)
(* ------------------------------------------------------------------ *)

let test_literal_chars () =
  List.iter
    (fun (c, l) ->
      Alcotest.(check char) "roundtrip" c (Literal.to_char (Literal.of_char c));
      Alcotest.(check bool) "of_char" true (Literal.equal l (Literal.of_char c)))
    [ ('0', Literal.Neg); ('1', Literal.Pos); ('-', Literal.Absent) ];
  Alcotest.(check bool) "'2' is dash" true
    (Literal.equal Literal.Absent (Literal.of_char '2'));
  Alcotest.(check bool) "bad char raises" true
    (try
       ignore (Literal.of_char 'x');
       false
     with Invalid_argument _ -> true)

let test_literal_algebra () =
  let open Literal in
  Alcotest.(check bool) "pos/neg clash" true (intersect Pos Neg = None);
  Alcotest.(check bool) "dash identity" true (intersect Absent Pos = Some Pos);
  Alcotest.(check bool) "dash covers" true (covers Absent Pos && covers Absent Neg);
  Alcotest.(check bool) "pos covers pos" true (covers Pos Pos);
  Alcotest.(check bool) "pos !covers dash" false (covers Pos Absent);
  Alcotest.(check bool) "complement" true (equal (complement Pos) Neg);
  Alcotest.(check bool) "matches" true (matches Pos true && matches Neg false && matches Absent true)

(* ------------------------------------------------------------------ *)
(* Cube                                                               *)
(* ------------------------------------------------------------------ *)

let cube = Cube.of_string

let test_cube_string_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) "roundtrip" s (Cube.to_string (cube s)))
    [ "1-0"; "----"; "1111"; "0" ]

let test_cube_eval () =
  let c = cube "1-0" in
  Alcotest.(check bool) "101 -> x0 & !x2" false (Cube.eval c [| true; false; true |]);
  Alcotest.(check bool) "100" true (Cube.eval c [| true; false; false |]);
  Alcotest.(check bool) "110" true (Cube.eval c [| true; true; false |]);
  Alcotest.(check bool) "000" false (Cube.eval c [| false; false; false |])

let test_cube_covers () =
  Alcotest.(check bool) "1-- covers 1-0" true (Cube.covers (cube "1--") (cube "1-0"));
  Alcotest.(check bool) "1-0 !covers 1--" false (Cube.covers (cube "1-0") (cube "1--"));
  Alcotest.(check bool) "self covers" true (Cube.covers (cube "1-0") (cube "1-0"));
  Alcotest.(check bool) "disjoint" false (Cube.covers (cube "1--") (cube "0--"))

let test_cube_intersect () =
  (match Cube.intersect (cube "1--") (cube "-0-") with
  | Some c -> Alcotest.(check string) "meet" "10-" (Cube.to_string c)
  | None -> Alcotest.fail "expected intersection");
  Alcotest.(check bool) "clash empty" true (Option.is_none (Cube.intersect (cube "1--") (cube "0--")))

let test_cube_distance_supercube () =
  Alcotest.(check int) "distance 3" 3 (Cube.distance (cube "110") (cube "001"));
  Alcotest.(check int) "distance 1" 1 (Cube.distance (cube "11-") (cube "10-"));
  Alcotest.(check int) "distance 0" 0 (Cube.distance (cube "1--") (cube "-1-"));
  Alcotest.(check string) "supercube" "1--" (Cube.to_string (Cube.supercube (cube "110") (cube "101")))

let test_cube_cofactor () =
  (match Cube.cofactor (cube "1-0") ~var:0 ~value:true with
  | Some c -> Alcotest.(check string) "freed" "--0" (Cube.to_string c)
  | None -> Alcotest.fail "non-empty cofactor expected");
  Alcotest.(check bool) "conflicting cofactor empty" true
    (Option.is_none (Cube.cofactor (cube "1-0") ~var:0 ~value:false));
  (match Cube.cofactor (cube "1-0") ~var:1 ~value:false with
  | Some c -> Alcotest.(check string) "absent var unchanged" "1-0" (Cube.to_string c)
  | None -> Alcotest.fail "non-empty cofactor expected")

let test_cube_merge_adjacent () =
  (match Cube.merge_adjacent (cube "110") (cube "100") with
  | Some c -> Alcotest.(check string) "QM merge" "1-0" (Cube.to_string c)
  | None -> Alcotest.fail "expected merge");
  Alcotest.(check bool) "distance-2 no merge" true
    (Option.is_none (Cube.merge_adjacent (cube "110") (cube "001")));
  Alcotest.(check bool) "dash mismatch no merge" true
    (Option.is_none (Cube.merge_adjacent (cube "1-0") (cube "110")))

let test_cube_sharp () =
  (* --- # 1-- = 0-- ; disjointness and exactness *)
  let pieces = Cube.sharp (cube "---") (cube "1--") in
  Alcotest.(check (list string)) "single piece" [ "0--" ] (List.map Cube.to_string pieces);
  (* a inside b -> empty *)
  Alcotest.(check (list string)) "covered -> empty" []
    (List.map Cube.to_string (Cube.sharp (cube "11-") (cube "1--")));
  (* disjoint -> [a] *)
  Alcotest.(check (list string)) "disjoint -> a" [ "0--" ]
    (List.map Cube.to_string (Cube.sharp (cube "0--") (cube "1--")));
  (* multi-variable: --- # 11- = {0--, 10-} (disjoint) *)
  let pieces = Cube.sharp (cube "---") (cube "11-") in
  Alcotest.(check (list string)) "two disjoint pieces" [ "0--"; "10-" ]
    (List.map Cube.to_string pieces)

let test_cube_minterms () =
  let ms = Cube.minterms (cube "1-") in
  Alcotest.(check int) "two minterms" 2 (List.length ms);
  List.iter (fun m -> Alcotest.(check bool) "x0 fixed" true m.(0)) ms

let test_cube_literals () =
  Alcotest.(check int) "num_literals" 2 (Cube.num_literals (cube "1-0"));
  Alcotest.(check bool) "is_minterm" true (Cube.is_minterm (cube "101"));
  Alcotest.(check bool) "not minterm" false (Cube.is_minterm (cube "1-1"));
  Alcotest.(check int) "literals list" 2 (List.length (Cube.literals (cube "1-0")))

(* ------------------------------------------------------------------ *)
(* Cover                                                              *)
(* ------------------------------------------------------------------ *)

let cover rows = Cover.of_strings rows
let cover_strings f = List.map Cube.to_string (Cover.cubes f)

(* The paper's running example: f = x1 + x2 + x3 + x4 + x5 x6 x7 x8. *)
let paper_example =
  cover [ "1-------"; "-1------"; "--1-----"; "---1----"; "----1111" ]

let test_cover_eval () =
  let f = cover [ "11-"; "--1" ] in
  Alcotest.(check bool) "110" true (Cover.eval f [| true; true; false |]);
  Alcotest.(check bool) "001" true (Cover.eval f [| false; false; true |]);
  Alcotest.(check bool) "100" false (Cover.eval f [| true; false; false |])

let test_cover_counts () =
  Alcotest.(check int) "size" 5 (Cover.size paper_example);
  Alcotest.(check int) "literal count" 8 (Cover.literal_count paper_example)

let test_cover_scc () =
  let f = cover [ "1--"; "11-"; "1--"; "011" ] in
  let g = Cover.single_cube_containment f in
  Alcotest.(check int) "kept 2" 2 (Cover.size g);
  Alcotest.(check bool) "semantics preserved" true (Cover.equal_semantics f g);
  Alcotest.(check (list string)) "last equal copy kept in place" [ "0-1"; "11-" ]
    (cover_strings (Cover.single_cube_containment (cover [ "11-"; "0-1"; "11-" ])))

let test_cover_sharp () =
  let f = cover [ "---" ] and g = cover [ "11-"; "0-1" ] in
  let d = Cover.sharp f g in
  (* d = f and not g, checked pointwise *)
  for idx = 0 to 7 do
    let v = Array.init 3 (fun i -> (idx lsr i) land 1 = 1) in
    Alcotest.(check bool) "difference semantics"
      (Cover.eval f v && not (Cover.eval g v))
      (Cover.eval d v)
  done

let test_cover_misc () =
  Alcotest.(check bool) "top is tautology" true (Tautology.check (Cover.top 3));
  Alcotest.(check bool) "empty is empty" true (Cover.is_empty (Cover.empty 3));
  let f = Cover.add_cube (Cover.empty 2) (cube "1-") in
  Alcotest.(check int) "add_cube" 1 (Cover.size f);
  Alcotest.(check bool) "arity mismatch rejected" true
    (try
       ignore (Cover.add_cube f (cube "1--"));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check string) "pp" "1-" (Fmt.str "%a" Cover.pp f);
  Alcotest.(check string) "pp empty" "<empty/2>" (Fmt.str "%a" Cover.pp (Cover.empty 2))

(* ------------------------------------------------------------------ *)
(* Tautology                                                          *)
(* ------------------------------------------------------------------ *)

let test_tautology_basic () =
  Alcotest.(check bool) "x + x' = 1" true (Tautology.check (cover [ "1-"; "0-" ]));
  Alcotest.(check bool) "x + x y' not taut" false (Tautology.check (cover [ "1-"; "10" ]));
  Alcotest.(check bool) "universe" true (Tautology.check (cover [ "--" ]));
  Alcotest.(check bool) "empty not taut" false (Tautology.check (Cover.empty 2));
  Alcotest.(check bool) "full minterm cover" true
    (Tautology.check (cover [ "00"; "01"; "10"; "11" ]))

let test_tautology_binate_recursion () =
  (* x y + x y' + x' z + x' z' = 1 *)
  Alcotest.(check bool) "taut via branching" true
    (Tautology.check (cover [ "11-"; "10-"; "0-1"; "0-0" ]));
  Alcotest.(check bool) "missing corner" false
    (Tautology.check (cover [ "11-"; "10-"; "0-1" ]))

let test_cube_covered () =
  Alcotest.(check bool) "11 covered by x" true
    (Tautology.cube_covered (cube "11") (cover [ "1-" ]));
  Alcotest.(check bool) "1- not covered by 11" false
    (Tautology.cube_covered (cube "1-") (cover [ "11" ]));
  Alcotest.(check bool) "split coverage" true
    (Tautology.cube_covered (cube "1-") (cover [ "11"; "10" ]))

let test_cover_equal () =
  let a = cover [ "1-"; "-1" ] and b = cover [ "1-"; "01" ] in
  Alcotest.(check bool) "x + y = x + x'y" true (Tautology.equal a b)

(* ------------------------------------------------------------------ *)
(* Complement                                                         *)
(* ------------------------------------------------------------------ *)

let test_complement_example () =
  let f = cover [ "1-" ] in
  let fc = Complement.complement f in
  Alcotest.(check bool) "f' = x'" true (Tautology.equal fc (cover [ "0-" ]))

let test_complement_empty_top () =
  let n = 3 in
  Alcotest.(check bool) "empty' = top" true
    (Tautology.check (Complement.complement (Cover.empty n)));
  Alcotest.(check bool) "top' = empty" true
    (Cover.is_empty (Complement.complement (Cover.top n)))

let test_complement_paper_example () =
  let fc = Complement.complement paper_example in
  (* f' = x1' x2' x3' x4' (x5 x6 x7 x8)' — 4 products after expansion. *)
  Alcotest.(check bool) "disjoint" true
    (not
       (List.exists
          (fun c -> Tautology.cube_covered c paper_example)
          (Cover.cubes fc)));
  let union = Cover.union paper_example fc in
  Alcotest.(check bool) "f + f' = 1" true (Tautology.check union)

(* ------------------------------------------------------------------ *)
(* Minimize                                                           *)
(* ------------------------------------------------------------------ *)

let test_expand_merges_minterms () =
  let f = cover [ "110"; "111"; "100"; "101" ] in
  let g = Minimize.espresso f in
  Alcotest.(check int) "collapses to x0" 1 (Cover.size g);
  Alcotest.(check string) "single cube 1--" "1--" (List.hd (cover_strings g))

let test_irredundant () =
  (* middle cube x y' + consensus covered by neighbours *)
  let f = cover [ "1-"; "0-"; "11" ] in
  let g = Minimize.irredundant f in
  Alcotest.(check int) "redundant removed" 2 (Cover.size g);
  Alcotest.(check bool) "still tautology" true (Tautology.check g)

let test_espresso_preserves_semantics () =
  let f =
    cover [ "1100"; "1101"; "111-"; "0-11"; "0010"; "1011"; "0000" ]
  in
  let g = Minimize.espresso f in
  Alcotest.(check bool) "semantics equal" true (Cover.equal_semantics f g);
  Alcotest.(check bool) "not larger" true (Cover.size g <= Cover.size f)

let test_espresso_dc () =
  (* ON = {110}, DC = {111, 10-}: with don't-cares the whole thing expands
     to the single cube 1--. *)
  let on = cover [ "110" ] in
  let dc = cover [ "111"; "10-" ] in
  let g = Minimize.espresso_dc ~dc on in
  Alcotest.(check int) "one cube" 1 (Cover.size g);
  Alcotest.(check string) "expanded to x1" "1--" (List.hd (cover_strings g));
  (* without DC, no such expansion is legal *)
  let h = Minimize.espresso on in
  Alcotest.(check int) "still 3 literals" 3 (Cover.literal_count h)

let test_espresso_dc_respects_offset () =
  let on = cover [ "11-" ] and dc = cover [ "10-" ] in
  let g = Minimize.espresso_dc ~dc on in
  (* every ON point covered *)
  Alcotest.(check bool) "covers ON" true
    (List.for_all (fun c -> Tautology.cube_covered c (Cover.union g dc))
       (Cover.cubes on));
  Alcotest.(check bool) "ON still covered by result" true
    (List.for_all (fun c -> Tautology.cube_covered c g) (Cover.cubes on) ||
     Tautology.cover_covered on g);
  (* no OFF point covered: result within ON u DC *)
  Alcotest.(check bool) "inside ON u DC" true
    (Tautology.cover_covered g (Cover.union on dc))

(* ------------------------------------------------------------------ *)
(* Truthtable                                                         *)
(* ------------------------------------------------------------------ *)

let test_tt_roundtrip () =
  let f = cover [ "1-0"; "011" ] in
  let tt = Truthtable.of_cover f in
  let back = Truthtable.to_cover tt in
  Alcotest.(check bool) "cover->tt->cover" true (Cover.equal_semantics f back)

let test_tt_indexing () =
  let v = [| true; false; true |] in
  let idx = Truthtable.index_of_assignment v in
  Alcotest.(check int) "bit0 + bit2" 5 idx;
  Alcotest.(check (array bool)) "inverse" v (Truthtable.assignment_of_index ~arity:3 idx)

let test_tt_complement () =
  let tt = Truthtable.create ~arity:4 (fun v -> v.(0)) in
  let cc = Truthtable.complement tt in
  Alcotest.(check int) "on count flips" 8 (Truthtable.on_count cc);
  Alcotest.(check bool) "double complement" true (Truthtable.equal tt (Truthtable.complement cc))

(* ------------------------------------------------------------------ *)
(* QM                                                                 *)
(* ------------------------------------------------------------------ *)

let test_qm_classic () =
  (* Classic example: f(x3..x0) on minterms 4,8,10,11,12,15 *)
  let on = [ 4; 8; 10; 11; 12; 15 ] in
  let tt = Truthtable.of_fun_int ~arity:4 (fun i -> List.mem i on) in
  let g = Qm.minimize tt in
  Alcotest.(check bool) "covers exactly" true (Truthtable.equal tt (Truthtable.of_cover g));
  Alcotest.(check bool) "<= 4 products (known minimum 3..4)" true (Cover.size g <= 4)

let test_qm_xor () =
  let tt = Truthtable.create ~arity:3 (fun v -> v.(0) <> v.(1) <> v.(2)) in
  let g = Qm.minimize tt in
  Alcotest.(check int) "xor3 needs 4 minterms" 4 (Cover.size g);
  Alcotest.(check bool) "exact" true (Truthtable.equal tt (Truthtable.of_cover g))

let test_qm_constant () =
  let ttrue = Truthtable.create ~arity:3 (fun _ -> true) in
  let g = Qm.minimize ttrue in
  Alcotest.(check int) "tautology is one cube" 1 (Cover.size g);
  Alcotest.(check int) "universe cube" 0 (Cover.literal_count g);
  let tfalse = Truthtable.create ~arity:3 (fun _ -> false) in
  Alcotest.(check int) "empty" 0 (Cover.size (Qm.minimize tfalse))

(* ------------------------------------------------------------------ *)
(* Mo_cover                                                           *)
(* ------------------------------------------------------------------ *)

let fig7_function () =
  (* O1 = x1 x2 + x2 x3, O2 = x1 x3 + x2 x3 (Fig. 7/8 of the paper). *)
  let o1 = cover [ "11-"; "-11" ] in
  let o2 = cover [ "1-1"; "-11" ] in
  Mo_cover.of_covers [ o1; o2 ]

let test_mo_sharing () =
  let mo = fig7_function () in
  Alcotest.(check int) "shared rows: m1 m2=m4 m3" 3 (Mo_cover.product_count mo);
  Alcotest.(check int) "outputs" 2 (Mo_cover.n_outputs mo);
  Alcotest.(check int) "literals" 6 (Mo_cover.literal_count mo);
  Alcotest.(check int) "connections" 4 (Mo_cover.connection_count mo)

let test_mo_paper_counts () =
  (* The paper's Fig. 8 FM keeps m2 (x2 x3 of O1) and m4 (x2 x3 of O2)
     as separate rows: product sharing disabled. *)
  let o1 = cover [ "11-"; "-11" ] and o2 = cover [ "1-1"; "-11" ] in
  let rows =
    List.map (fun c -> { Mo_cover.cube = c; outputs = [| true; false |] }) (Cover.cubes o1)
    @ List.map (fun c -> { Mo_cover.cube = c; outputs = [| false; true |] }) (Cover.cubes o2)
  in
  ignore rows;
  (* sharing merges x2 x3: 3 rows, as asserted above. The unshared FM of the
     figure is built by the mapping layer with ~share:false. *)
  Alcotest.(check int) "of_covers shares" 3 (Mo_cover.product_count (fig7_function ()))

let test_mo_eval () =
  let mo = fig7_function () in
  let out = Mo_cover.eval mo [| true; true; false |] in
  Alcotest.(check (array bool)) "110 -> O1 only" [| true; false |] out;
  let out = Mo_cover.eval mo [| true; false; true |] in
  Alcotest.(check (array bool)) "101 -> O2 only" [| false; true |] out;
  let out = Mo_cover.eval mo [| false; true; true |] in
  Alcotest.(check (array bool)) "011 -> both" [| true; true |] out

let test_mo_complement () =
  let mo = fig7_function () in
  let neg = Mo_cover.complement mo in
  Alcotest.(check int) "same outputs" 2 (Mo_cover.n_outputs neg);
  for k = 0 to 1 do
    let f = Mo_cover.output_cover mo k and g = Mo_cover.output_cover neg k in
    Alcotest.(check bool) "complement disjoint" true
      (not (Tautology.check f) || Cover.is_empty g);
    Alcotest.(check bool) "union is tautology" true (Tautology.check (Cover.union f g))
  done

let test_mo_minimize () =
  let o1 = cover [ "110"; "111"; "10-" ] in
  let mo = Mo_cover.of_covers [ o1 ] in
  let minimized = Mo_cover.minimize mo in
  Alcotest.(check int) "minimized to x0" 1 (Mo_cover.product_count minimized);
  Alcotest.(check bool) "same function" true (Mo_cover.equal_semantics mo minimized)

(* ------------------------------------------------------------------ *)
(* Mo_minimize                                                        *)
(* ------------------------------------------------------------------ *)

let test_joint_shares_products () =
  (* O1 = x1 (as two unmerged halves), O2 = x1 x2: joint minimization must
     collapse O1's halves and share nothing incorrectly. *)
  let o1 = cover [ "11-"; "10-" ] and o2 = cover [ "11-" ] in
  let mo = Mo_cover.of_covers [ o1; o2 ] in
  let m = Mo_minimize.minimize_joint mo in
  Alcotest.(check bool) "semantics" true (Bdd.mo_cover_equal mo m);
  Alcotest.(check bool) "fewer or equal rows" true
    (Mo_cover.product_count m <= Mo_cover.product_count mo)

let test_joint_output_expansion () =
  (* O2's cube x1 x2 lies inside O1 = x1; expansion must extend its mask,
     making O1's own copy of the region redundant where possible. *)
  let o1 = cover [ "1--" ] and o2 = cover [ "11-" ] in
  let mo = Mo_cover.of_covers [ o1; o2 ] in
  let m = Mo_minimize.minimize_joint mo in
  Alcotest.(check bool) "semantics" true (Bdd.mo_cover_equal mo m);
  (* the shared row must now belong to both outputs or be dropped *)
  Alcotest.(check bool) "no extra rows" true (Mo_cover.product_count m <= 2)

(* ------------------------------------------------------------------ *)
(* Pla                                                                *)
(* ------------------------------------------------------------------ *)

let test_pla_file_roundtrip () =
  let mo = fig7_function () in
  let path = Filename.temp_file "mcx_test" ".pla" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc (Pla.to_string ~input_labels:[ "a"; "b"; "c" ] mo);
      close_out oc;
      let parsed = Pla.parse_file path in
      Alcotest.(check bool) "file roundtrip" true
        (Mo_cover.equal_semantics mo parsed.Pla.cover);
      Alcotest.(check (option (list string))) "labels kept" (Some [ "a"; "b"; "c" ])
        parsed.Pla.input_labels)

let test_pla_roundtrip () =
  let mo = fig7_function () in
  let text = Pla.to_string mo in
  let parsed = Pla.parse_string text in
  Alcotest.(check bool) "roundtrip semantics" true
    (Mo_cover.equal_semantics mo parsed.Pla.cover);
  Alcotest.(check int) "roundtrip P" (Mo_cover.product_count mo)
    (Mo_cover.product_count parsed.Pla.cover)

let test_pla_parse_directives () =
  let text =
    "# a comment\n.i 3\n.o 2\n.ilb a b c\n.ob f g\n.p 2\n11- 10\n--1 01\n.e\n"
  in
  let parsed = Pla.parse_string text in
  Alcotest.(check int) "inputs" 3 (Mo_cover.n_inputs parsed.Pla.cover);
  Alcotest.(check (option (list string))) "ilb" (Some [ "a"; "b"; "c" ]) parsed.Pla.input_labels;
  Alcotest.(check (option (list string))) "ob" (Some [ "f"; "g" ]) parsed.Pla.output_labels;
  Alcotest.(check int) "rows" 2 (Mo_cover.product_count parsed.Pla.cover);
  Alcotest.(check int) "no dc" 0 (Mo_cover.product_count parsed.Pla.dc)

let test_pla_dc_rows () =
  let text = ".i 2\n.o 2\n.type fr\n11 1-\n00 -1\n10 01\n.e\n" in
  let parsed = Pla.parse_string text in
  (* ON rows: 11->o1, 00->o2, 10->o2; DC: 11 dc for o2, 00 dc for o1 *)
  Alcotest.(check int) "on rows" 3 (Mo_cover.product_count parsed.Pla.cover);
  Alcotest.(check int) "dc rows" 2 (Mo_cover.product_count parsed.Pla.dc);
  let dc_o2 = Mo_cover.output_cover parsed.Pla.dc 1 in
  Alcotest.(check (list string)) "o2's dc cube" [ "11" ] (cover_strings dc_o2)

let test_pla_errors () =
  let bad_row = ".i 2\n.o 1\n111 1\n" in
  Alcotest.(check bool) "wrong width rejected" true
    (try
       ignore (Pla.parse_string bad_row);
       false
     with Pla.Parse_error _ -> true);
  Alcotest.(check bool) "missing .i rejected" true
    (try
       ignore (Pla.parse_string ".o 1\n1 1\n");
       false
     with Pla.Parse_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Random_sop                                                         *)
(* ------------------------------------------------------------------ *)

let test_random_cover_shape () =
  let prng = Mcx_util.Prng.create 99 in
  let params = { Random_sop.n_inputs = 8; n_products = 12; literal_probability = 0.5 } in
  let f = Random_sop.random_cover prng params in
  Alcotest.(check int) "arity" 8 (Cover.arity f);
  Alcotest.(check int) "products" 12 (Cover.size f);
  List.iter
    (fun c -> Alcotest.(check bool) "no universe cube" true (Cube.num_literals c > 0))
    (Cover.cubes f)

let test_random_cover_deterministic () =
  let params = { Random_sop.n_inputs = 6; n_products = 5; literal_probability = 0.5 } in
  let f1 = Random_sop.random_cover (Mcx_util.Prng.create 4) params in
  let f2 = Random_sop.random_cover (Mcx_util.Prng.create 4) params in
  Alcotest.(check (list string)) "same seed same cover" (cover_strings f1)
    (cover_strings f2)

(* ------------------------------------------------------------------ *)
(* Bdd                                                                *)
(* ------------------------------------------------------------------ *)

let test_bdd_basic_ops () =
  let m = Bdd.manager ~n_vars:3 () in
  let x0 = Bdd.var m 0 and x1 = Bdd.var m 1 in
  Alcotest.(check bool) "x & !x = 0" true (Bdd.is_false (Bdd.and_ m x0 (Bdd.not_ m x0)));
  Alcotest.(check bool) "x | !x = 1" true (Bdd.is_true (Bdd.or_ m x0 (Bdd.not_ m x0)));
  Alcotest.(check bool) "xor self" true (Bdd.is_false (Bdd.xor m x1 x1));
  Alcotest.(check bool) "de morgan" true
    (Bdd.equal (Bdd.nand m x0 x1) (Bdd.or_ m (Bdd.not_ m x0) (Bdd.not_ m x1)));
  Alcotest.(check bool) "nvar = not var" true (Bdd.equal (Bdd.nvar m 2) (Bdd.not_ m (Bdd.var m 2)))

let test_bdd_canonical () =
  let m = Bdd.manager ~n_vars:4 () in
  let a = Bdd.or_ m (Bdd.var m 0) (Bdd.var m 1) in
  let b = Bdd.or_ m (Bdd.var m 1) (Bdd.var m 0) in
  Alcotest.(check bool) "commutative builds same node" true (Bdd.equal a b);
  (* x0 + x0'x1 == x0 + x1 *)
  let c = Bdd.or_ m (Bdd.var m 0) (Bdd.and_ m (Bdd.nvar m 0) (Bdd.var m 1)) in
  Alcotest.(check bool) "absorption is canonical" true (Bdd.equal a c)

let test_bdd_eval_vs_cover () =
  let f = cover [ "11-0"; "0-1-"; "--01" ] in
  let m = Bdd.manager ~n_vars:4 () in
  let b = Bdd.of_cover m f in
  for idx = 0 to 15 do
    let v = Array.init 4 (fun i -> (idx lsr i) land 1 = 1) in
    Alcotest.(check bool) "bdd = cover" (Cover.eval f v) (Bdd.eval b v)
  done

let test_bdd_count_minterms () =
  let m = Bdd.manager ~n_vars:4 () in
  Alcotest.(check (float 1e-9)) "true covers all" 16. (Bdd.count_minterms m (Bdd.bdd_true m));
  Alcotest.(check (float 1e-9)) "single var covers half" 8.
    (Bdd.count_minterms m (Bdd.var m 2));
  let f = Bdd.of_cover m (cover [ "11--" ]) in
  Alcotest.(check (float 1e-9)) "cube of 2 lits" 4. (Bdd.count_minterms m f)

let test_bdd_cover_equal_wide () =
  (* 23-variable check, far beyond truth-table range: odd parity over 10
     of the variables equals its own double complement. *)
  let vars = List.init 10 Fun.id in
  let parity even =
    let cube_of bits =
      let lits = Array.make 23 Literal.Absent in
      List.iteri
        (fun i v -> lits.(v) <- (if (bits lsr i) land 1 = 1 then Literal.Pos else Literal.Neg))
        vars;
      Cube.of_literals lits
    in
    let want = if even then 0 else 1 in
    let rec popcount x = if x = 0 then 0 else (x land 1) + popcount (x lsr 1) in
    Cover.create ~arity:23
      (List.filter_map
         (fun bits -> if popcount bits land 1 = want then Some (cube_of bits) else None)
         (List.init 1024 Fun.id))
  in
  let odd = parity false and even = parity true in
  Alcotest.(check bool) "odd != even" false (Bdd.cover_equal odd even);
  Alcotest.(check bool) "odd = odd (distinct lists)" true (Bdd.cover_equal odd odd);
  (* parity BDDs are linear-size in the variable count *)
  let m = Bdd.manager ~n_vars:23 () in
  Alcotest.(check bool) "parity bdd is small" true (Bdd.size (Bdd.of_cover m odd) <= 2 * 23)

let test_bdd_manager_mixing () =
  let m1 = Bdd.manager ~n_vars:2 () and m2 = Bdd.manager ~n_vars:2 () in
  Alcotest.(check bool) "cross-manager rejected" true
    (try
       ignore (Bdd.and_ m1 (Bdd.var m1 0) (Bdd.var m2 0));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                  *)
(* ------------------------------------------------------------------ *)

let gen_cover ~arity ~max_products =
  QCheck2.Gen.(
    let gen_lit =
      oneofl [ Literal.Pos; Literal.Neg; Literal.Absent; Literal.Absent ]
    in
    let gen_cube = array_size (pure arity) gen_lit in
    let* n = int_range 0 max_products in
    let+ cubes = list_size (pure n) gen_cube in
    Cover.create ~arity (List.map Cube.of_literals cubes))

let prop_complement_correct =
  QCheck2.Test.make ~name:"complement: f + f' taut, f . f' empty" ~count:150
    (gen_cover ~arity:5 ~max_products:6)
    (fun f ->
      let fc = Complement.complement f in
      let tt = Truthtable.of_cover f and ttc = Truthtable.of_cover fc in
      Truthtable.equal ttc (Truthtable.complement tt))

let prop_espresso_preserves =
  QCheck2.Test.make ~name:"espresso preserves semantics" ~count:100
    (gen_cover ~arity:5 ~max_products:8)
    (fun f ->
      let g = Minimize.espresso f in
      Cover.equal_semantics f g && Cover.size g <= max 1 (Cover.size f))

let prop_qm_exact =
  QCheck2.Test.make ~name:"QM minimize reproduces truth table" ~count:60
    QCheck2.Gen.(int_bound 0xFFFF)
    (fun bits ->
      let tt = Truthtable.of_fun_int ~arity:4 (fun i -> (bits lsr i) land 1 = 1) in
      let g = Qm.minimize tt in
      Truthtable.equal tt (Truthtable.of_cover g))

let prop_tautology_vs_truthtable =
  QCheck2.Test.make ~name:"tautology check agrees with truth table" ~count:150
    (gen_cover ~arity:4 ~max_products:6)
    (fun f ->
      Bool.equal (Tautology.check f)
        (Truthtable.on_count (Truthtable.of_cover f) = 16))

let prop_expand_preserves =
  QCheck2.Test.make ~name:"expand preserves semantics" ~count:100
    (gen_cover ~arity:5 ~max_products:6)
    (fun f -> Cover.equal_semantics f (Minimize.expand f))

let prop_irredundant_preserves =
  QCheck2.Test.make ~name:"irredundant preserves semantics" ~count:100
    (gen_cover ~arity:5 ~max_products:6)
    (fun f -> Cover.equal_semantics f (Minimize.irredundant f))

let prop_reduce_preserves =
  QCheck2.Test.make ~name:"reduce preserves semantics" ~count:100
    (gen_cover ~arity:5 ~max_products:6)
    (fun f -> Cover.equal_semantics f (Minimize.reduce f))

let prop_sharp_is_difference =
  QCheck2.Test.make ~name:"cover sharp = conjunction with complement" ~count:150
    QCheck2.Gen.(pair (gen_cover ~arity:4 ~max_products:4) (gen_cover ~arity:4 ~max_products:4))
    (fun (f, g) ->
      let d = Cover.sharp f g in
      let ok = ref true in
      for idx = 0 to 15 do
        let v = Array.init 4 (fun i -> (idx lsr i) land 1 = 1) in
        if Cover.eval d v <> (Cover.eval f v && not (Cover.eval g v)) then ok := false
      done;
      !ok)

let prop_cube_sharp_disjoint =
  QCheck2.Test.make ~name:"cube sharp pieces are pairwise disjoint" ~count:200
    QCheck2.Gen.(
      pair
        (array_size (pure 5) (oneofl [ Literal.Pos; Literal.Neg; Literal.Absent ]))
        (array_size (pure 5) (oneofl [ Literal.Pos; Literal.Neg; Literal.Absent ])))
    (fun (a, b) ->
      let a = Cube.of_literals a and b = Cube.of_literals b in
      let pieces = Cube.sharp a b in
      let rec pairwise = function
        | [] -> true
        | x :: rest ->
          List.for_all (fun y -> Option.is_none (Cube.intersect x y)) rest && pairwise rest
      in
      pairwise pieces)

let prop_espresso_dc_sound =
  QCheck2.Test.make ~name:"espresso_dc: covers ON, stays inside ON u DC" ~count:80
    QCheck2.Gen.(pair (gen_cover ~arity:4 ~max_products:5) (gen_cover ~arity:4 ~max_products:3))
    (fun (on, dc) ->
      let g = Minimize.espresso_dc ~dc on in
      Tautology.cover_covered on (Cover.union g dc)
      && Tautology.cover_covered g (Cover.union on dc))

let prop_pla_roundtrip =
  QCheck2.Test.make ~name:"PLA print/parse roundtrip" ~count:100
    (gen_cover ~arity:6 ~max_products:8)
    (fun f ->
      let mo = Mo_cover.of_single f in
      let parsed = Pla.parse_string (Pla.to_string mo) in
      Mo_cover.equal_semantics mo parsed.Pla.cover)

let gen_mo ~arity ~max_products =
  QCheck2.Gen.(
    let gen_lit = oneofl [ Literal.Pos; Literal.Neg; Literal.Absent; Literal.Absent ] in
    let gen_cube = array_size (pure arity) gen_lit in
    let* n1 = int_range 1 max_products in
    let* n2 = int_range 1 max_products in
    let* c1 = list_size (pure n1) gen_cube in
    let+ c2 = list_size (pure n2) gen_cube in
    Mo_cover.of_covers
      [
        Cover.create ~arity (List.map Cube.of_literals c1);
        Cover.create ~arity (List.map Cube.of_literals c2);
      ])

let prop_joint_minimize_preserves =
  QCheck2.Test.make ~name:"joint minimization preserves all outputs" ~count:100
    (gen_mo ~arity:5 ~max_products:6)
    (fun mo ->
      let m = Mo_minimize.minimize_joint mo in
      Bdd.mo_cover_equal mo m && Mo_cover.product_count m <= Mo_cover.product_count mo)

let prop_bdd_matches_truthtable =
  QCheck2.Test.make ~name:"BDD of cover agrees with truth table" ~count:150
    (gen_cover ~arity:5 ~max_products:7)
    (fun f ->
      let m = Bdd.manager ~n_vars:5 () in
      let b = Bdd.of_cover m f in
      let tt = Truthtable.of_cover f in
      let ok = ref true in
      for idx = 0 to 31 do
        let v = Array.init 5 (fun i -> (idx lsr i) land 1 = 1) in
        if Bdd.eval b v <> Truthtable.eval tt v then ok := false
      done;
      !ok)

let prop_bdd_complement =
  QCheck2.Test.make ~name:"BDD: cover_equal(complement(f), not f)" ~count:80
    (gen_cover ~arity:5 ~max_products:6)
    (fun f ->
      let fc = Complement.complement f in
      let m = Bdd.manager ~n_vars:5 () in
      Bdd.equal (Bdd.of_cover m fc) (Bdd.not_ m (Bdd.of_cover m f)))

(* Random Boolean expressions over covers of one arity, built in one
   manager; each leaf and operator also has an equivalent rewrite (cubes
   in reverse order, De Morgan, sum of products), so equal functions reach
   [Bdd.equal] by different paths. *)
type bexpr =
  | Leaf of Cover.t
  | Not of bexpr
  | And of bexpr * bexpr
  | Or of bexpr * bexpr
  | Xor of bexpr * bexpr
  | Ite of bexpr * bexpr * bexpr

let gen_bexpr =
  QCheck2.Gen.(
    let* arity = int_range 10 14 in
    let leaf = map (fun f -> Leaf f) (gen_cover ~arity ~max_products:24) in
    let rec expr depth =
      if depth = 0 then leaf
      else
        let sub = expr (depth - 1) in
        frequency
          [
            (1, map (fun a -> Not a) sub);
            (2, map2 (fun a b -> And (a, b)) sub sub);
            (2, map2 (fun a b -> Or (a, b)) sub sub);
            (2, map2 (fun a b -> Xor (a, b)) sub sub);
            (2, map3 (fun f g h -> Ite (f, g, h)) sub sub sub);
          ]
    in
    let+ e = expr 3 in
    (arity, e))

let print_bexpr (arity, e) =
  let rec pp = function
    | Leaf f -> "(" ^ String.concat " + " (cover_strings f) ^ ")"
    | Not a -> "!" ^ pp a
    | And (a, b) -> "and[" ^ pp a ^ ", " ^ pp b ^ "]"
    | Or (a, b) -> "or[" ^ pp a ^ ", " ^ pp b ^ "]"
    | Xor (a, b) -> "xor[" ^ pp a ^ ", " ^ pp b ^ "]"
    | Ite (f, g, h) -> "ite[" ^ pp f ^ ", " ^ pp g ^ ", " ^ pp h ^ "]"
  in
  Printf.sprintf "%d inputs: %s" arity (pp e)

(* A fresh manager has room for 128 nodes (bdd.mli), so a manager holding a
   result of more than 510 internal nodes has doubled its unique and
   computed tables at least three times. At least a tenth of the cases
   must get there. *)
let test_bdd_random_ops_vs_truthtable () =
  let cases = ref 0 and grown = ref 0 in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~name:"BDD ops agree with truth tables" ~count:50 ~print:print_bexpr
       gen_bexpr (fun (arity, e) ->
         let m = Bdd.manager ~n_vars:arity () in
         let results = ref [] in
         let rec build e =
           let b, rewritten, tt =
             match e with
             | Leaf f ->
               ( Bdd.of_cover m f,
                 Bdd.of_cover m (Cover.create ~arity (List.rev (Cover.cubes f))),
                 Truthtable.of_cover f )
             | Not a ->
               let a, ta = build a in
               ( Bdd.not_ m a,
                 Bdd.xor m a (Bdd.bdd_true m),
                 Truthtable.complement ta )
             | And (a, b) ->
               let a, ta = build a and b, tb = build b in
               ( Bdd.and_ m a b,
                 Bdd.not_ m (Bdd.or_ m (Bdd.not_ m a) (Bdd.not_ m b)),
                 Truthtable.of_fun_int ~arity (fun i -> Truthtable.get ta i && Truthtable.get tb i) )
             | Or (a, b) ->
               let a, ta = build a and b, tb = build b in
               ( Bdd.or_ m a b,
                 Bdd.nand m (Bdd.not_ m a) (Bdd.not_ m b),
                 Truthtable.of_fun_int ~arity (fun i -> Truthtable.get ta i || Truthtable.get tb i) )
             | Xor (a, b) ->
               let a, ta = build a and b, tb = build b in
               ( Bdd.xor m a b,
                 Bdd.or_ m (Bdd.and_ m a (Bdd.not_ m b)) (Bdd.and_ m (Bdd.not_ m a) b),
                 Truthtable.of_fun_int ~arity (fun i -> Truthtable.get ta i <> Truthtable.get tb i) )
             | Ite (f, g, h) ->
               let f, tf = build f and g, tg = build g and h, th = build h in
               ( Bdd.ite m f g h,
                 Bdd.or_ m (Bdd.and_ m f g) (Bdd.and_ m (Bdd.not_ m f) h),
                 Truthtable.of_fun_int ~arity (fun i ->
                     if Truthtable.get tf i then Truthtable.get tg i else Truthtable.get th i) )
           in
           if not (Bdd.equal b rewritten) then QCheck2.Test.fail_report "rewrite built another node";
           results := (b, tt) :: !results;
           (b, tt)
         in
         ignore (build e);
         incr cases;
         if List.exists (fun (b, _) -> Bdd.size b > 510) !results then incr grown;
         let agrees i =
           let v = Truthtable.assignment_of_index ~arity i in
           List.for_all (fun (b, tt) -> Bool.equal (Bdd.eval b v) (Truthtable.get tt i)) !results
         in
         let rec every_vector i = i = 1 lsl arity || (agrees i && every_vector (i + 1)) in
         every_vector 0
         && List.for_all
              (fun (b, tt) ->
                List.for_all
                  (fun (b', tt') -> Bool.equal (Bdd.equal b b') (Truthtable.equal tt tt'))
                  !results)
              !results));
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d cases grew the tables three times" !grown !cases)
    true
    (10 * !grown >= !cases)

(* A fresh manager costs a few KB (bdd.mli). Words are counted from
   [Gc.stat] (minor + major - promoted): [Gc.allocated_bytes] under-counts
   words still in the minor heap (OCaml 5.1). *)
let test_bdd_manager_small () =
  let before = Gc.stat () in
  let m = Bdd.manager ~n_vars:8 () in
  let after = Gc.stat () in
  ignore (Sys.opaque_identity m);
  let words =
    after.Gc.minor_words -. before.Gc.minor_words
    +. (after.Gc.major_words -. before.Gc.major_words)
    -. (after.Gc.promoted_words -. before.Gc.promoted_words)
  in
  let bytes = words *. float_of_int (Sys.word_size / 8) in
  Alcotest.(check bool) (Printf.sprintf "%.0f bytes < 32 KB" bytes) true (bytes < 32768.)

let prop_supercube_covers =
  QCheck2.Test.make ~name:"supercube covers both operands" ~count:200
    QCheck2.Gen.(
      pair
        (array_size (pure 6) (oneofl [ Literal.Pos; Literal.Neg; Literal.Absent ]))
        (array_size (pure 6) (oneofl [ Literal.Pos; Literal.Neg; Literal.Absent ])))
    (fun (a, b) ->
      let a = Cube.of_literals a and b = Cube.of_literals b in
      let s = Cube.supercube a b in
      Cube.covers s a && Cube.covers s b)

let prop_intersect_iff_distance_zero =
  QCheck2.Test.make ~name:"intersection non-empty iff distance 0" ~count:200
    QCheck2.Gen.(
      pair
        (array_size (pure 6) (oneofl [ Literal.Pos; Literal.Neg; Literal.Absent ]))
        (array_size (pure 6) (oneofl [ Literal.Pos; Literal.Neg; Literal.Absent ])))
    (fun (a, b) ->
      let a = Cube.of_literals a and b = Cube.of_literals b in
      Bool.equal (Option.is_some (Cube.intersect a b)) (Cube.distance a b = 0))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_complement_correct;
      prop_espresso_preserves;
      prop_qm_exact;
      prop_tautology_vs_truthtable;
      prop_expand_preserves;
      prop_irredundant_preserves;
      prop_reduce_preserves;
      prop_pla_roundtrip;
      prop_espresso_dc_sound;
      prop_sharp_is_difference;
      prop_cube_sharp_disjoint;
      prop_bdd_matches_truthtable;
      prop_bdd_complement;
      prop_joint_minimize_preserves;
      prop_supercube_covers;
      prop_intersect_iff_distance_zero;
    ]

let () =
  Alcotest.run "mcx_logic"
    [
      ( "literal",
        [
          Alcotest.test_case "chars" `Quick test_literal_chars;
          Alcotest.test_case "algebra" `Quick test_literal_algebra;
        ] );
      ( "cube",
        [
          Alcotest.test_case "string roundtrip" `Quick test_cube_string_roundtrip;
          Alcotest.test_case "eval" `Quick test_cube_eval;
          Alcotest.test_case "covers" `Quick test_cube_covers;
          Alcotest.test_case "intersect" `Quick test_cube_intersect;
          Alcotest.test_case "distance/supercube" `Quick test_cube_distance_supercube;
          Alcotest.test_case "cofactor" `Quick test_cube_cofactor;
          Alcotest.test_case "merge adjacent" `Quick test_cube_merge_adjacent;
          Alcotest.test_case "sharp" `Quick test_cube_sharp;
          Alcotest.test_case "minterms" `Quick test_cube_minterms;
          Alcotest.test_case "literals" `Quick test_cube_literals;
        ] );
      ( "cover",
        [
          Alcotest.test_case "eval" `Quick test_cover_eval;
          Alcotest.test_case "counts (paper fig3)" `Quick test_cover_counts;
          Alcotest.test_case "single-cube containment" `Quick test_cover_scc;
          Alcotest.test_case "misc" `Quick test_cover_misc;
          Alcotest.test_case "sharp" `Quick test_cover_sharp;
        ] );
      ( "tautology",
        [
          Alcotest.test_case "basic" `Quick test_tautology_basic;
          Alcotest.test_case "binate recursion" `Quick test_tautology_binate_recursion;
          Alcotest.test_case "cube covered" `Quick test_cube_covered;
          Alcotest.test_case "cover equality" `Quick test_cover_equal;
        ] );
      ( "complement",
        [
          Alcotest.test_case "single cube" `Quick test_complement_example;
          Alcotest.test_case "empty/top" `Quick test_complement_empty_top;
          Alcotest.test_case "paper example" `Quick test_complement_paper_example;
        ] );
      ( "minimize",
        [
          Alcotest.test_case "expand merges" `Quick test_expand_merges_minterms;
          Alcotest.test_case "irredundant" `Quick test_irredundant;
          Alcotest.test_case "espresso semantics" `Quick test_espresso_preserves_semantics;
          Alcotest.test_case "espresso with DC" `Quick test_espresso_dc;
          Alcotest.test_case "DC respects off-set" `Quick test_espresso_dc_respects_offset;
        ] );
      ( "truthtable",
        [
          Alcotest.test_case "roundtrip" `Quick test_tt_roundtrip;
          Alcotest.test_case "indexing" `Quick test_tt_indexing;
          Alcotest.test_case "complement" `Quick test_tt_complement;
        ] );
      ( "qm",
        [
          Alcotest.test_case "classic" `Quick test_qm_classic;
          Alcotest.test_case "xor3" `Quick test_qm_xor;
          Alcotest.test_case "constants" `Quick test_qm_constant;
        ] );
      ( "mo_cover",
        [
          Alcotest.test_case "sharing" `Quick test_mo_sharing;
          Alcotest.test_case "paper row counts" `Quick test_mo_paper_counts;
          Alcotest.test_case "eval" `Quick test_mo_eval;
          Alcotest.test_case "complement" `Quick test_mo_complement;
          Alcotest.test_case "minimize" `Quick test_mo_minimize;
        ] );
      ( "pla",
        [
          Alcotest.test_case "roundtrip" `Quick test_pla_roundtrip;
          Alcotest.test_case "directives" `Quick test_pla_parse_directives;
          Alcotest.test_case "errors" `Quick test_pla_errors;
          Alcotest.test_case "don't-care rows" `Quick test_pla_dc_rows;
          Alcotest.test_case "file roundtrip" `Quick test_pla_file_roundtrip;
        ] );
      ( "mo_minimize",
        [
          Alcotest.test_case "shares products" `Quick test_joint_shares_products;
          Alcotest.test_case "output expansion" `Quick test_joint_output_expansion;
        ] );
      ( "bdd",
        [
          Alcotest.test_case "basic ops" `Quick test_bdd_basic_ops;
          Alcotest.test_case "canonicity" `Quick test_bdd_canonical;
          Alcotest.test_case "eval vs cover" `Quick test_bdd_eval_vs_cover;
          Alcotest.test_case "count minterms" `Quick test_bdd_count_minterms;
          Alcotest.test_case "wide cover equality" `Quick test_bdd_cover_equal_wide;
          Alcotest.test_case "manager mixing" `Quick test_bdd_manager_mixing;
          Alcotest.test_case "random ops vs truth tables" `Quick test_bdd_random_ops_vs_truthtable;
          Alcotest.test_case "fresh manager is small" `Quick test_bdd_manager_small;
        ] );
      ( "random_sop",
        [
          Alcotest.test_case "shape" `Quick test_random_cover_shape;
          Alcotest.test_case "deterministic" `Quick test_random_cover_deterministic;
        ] );
      ("properties", qcheck_cases);
    ]
