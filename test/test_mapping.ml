open Mcx_mapping
open Mcx_crossbar
open Mcx_logic
open Mcx_util

(* ------------------------------------------------------------------ *)
(* Munkres (the weighted reference solver in test/munkres.ml)          *)
(* ------------------------------------------------------------------ *)

let test_munkres_identity () =
  let cost = [| [| 0; 1 |]; [| 1; 0 |] |] in
  let total, assignment = Munkres.solve cost in
  Alcotest.(check int) "zero cost" 0 total;
  Alcotest.(check (array int)) "identity" [| 0; 1 |] assignment

let test_munkres_classic () =
  (* Classic 3x3 example with optimum 5 (1+3+1? -> rows pick 2,1,2?). *)
  let cost = [| [| 1; 2; 3 |]; [| 2; 4; 6 |]; [| 3; 6; 9 |] |] in
  let total, assignment = Munkres.solve cost in
  (* Optimal: row0->col2 (3), row1->col1 (4), row2->col0 (3) = 10. *)
  Alcotest.(check int) "optimal 10" 10 total;
  let distinct = List.sort_uniq compare (Array.to_list assignment) in
  Alcotest.(check int) "distinct columns" 3 (List.length distinct)

let test_munkres_rectangular () =
  let cost = [| [| 5; 0; 9; 7 |]; [| 8; 3; 0; 6 |] |] in
  let total, assignment = Munkres.solve cost in
  Alcotest.(check int) "picks the zeros" 0 total;
  Alcotest.(check (array int)) "assignment" [| 1; 2 |] assignment

let test_munkres_empty () =
  let total, assignment = Munkres.solve [||] in
  Alcotest.(check int) "zero cost" 0 total;
  Alcotest.(check (array int)) "empty assignment" [||] assignment

let test_munkres_single_row () =
  let total, assignment = Munkres.solve [| [| 3; 1; 2 |] |] in
  Alcotest.(check int) "min of the row" 1 total;
  Alcotest.(check (array int)) "picks the cheapest column" [| 1 |] assignment

let test_munkres_all_zero () =
  let cost = Array.make_matrix 3 5 0 in
  let total, assignment = Munkres.solve cost in
  Alcotest.(check int) "all-zero total" 0 total;
  Alcotest.(check int) "columns distinct" 3
    (List.length (List.sort_uniq compare (Array.to_list assignment)));
  Array.iter
    (fun j -> Alcotest.(check bool) "column in range" true (j >= 0 && j < 5))
    assignment

let test_munkres_rejects_empty_rows () =
  Alcotest.(check bool) "1x0 rejected" true
    (try
       ignore (Munkres.solve [| [||] |]);
       false
     with Invalid_argument _ -> true)

let test_munkres_infeasible_zero () =
  let cost = [| [| 1; 1 |]; [| 1; 0 |] |] in
  Alcotest.(check bool) "no zero assignment" true (Munkres.feasible_zero cost = None)

let test_munkres_rejects_tall () =
  Alcotest.(check bool) "n > m rejected" true
    (try
       ignore (Munkres.solve [| [| 1 |]; [| 2 |] |]);
       false
     with Invalid_argument _ -> true)

let brute_force_min cost =
  let n = Array.length cost and m = Array.length cost.(0) in
  let best = ref max_int in
  let used = Array.make m false in
  let rec go i acc =
    if acc >= !best then ()
    else if i = n then best := acc
    else
      for j = 0 to m - 1 do
        if not used.(j) then begin
          used.(j) <- true;
          go (i + 1) (acc + cost.(i).(j));
          used.(j) <- false
        end
      done
  in
  go 0 0;
  !best

let prop_munkres_optimal =
  QCheck2.Test.make ~name:"munkres matches brute force" ~count:200
    QCheck2.Gen.(
      let* n = int_range 1 5 in
      let* m = int_range n 6 in
      array_size (pure n) (array_size (pure m) (int_bound 20)))
    (fun cost ->
      let total, assignment = Munkres.solve cost in
      let valid =
        List.length (List.sort_uniq compare (Array.to_list assignment))
        = Array.length assignment
      in
      valid && total = brute_force_min cost)

(* ------------------------------------------------------------------ *)
(* Matching                                                           *)
(* ------------------------------------------------------------------ *)

let test_row_matches () =
  let fm = Bmatrix.of_int_lists [ [ 1; 1; 0 ]; [ 0; 1; 0 ] ] in
  let cm = Bmatrix.of_int_lists [ [ 1; 1; 1 ]; [ 1; 0; 1 ] ] in
  Alcotest.(check bool) "fits functional row" true
    (Matching.row_matches ~fm ~fm_row:0 ~cm ~cm_row:0);
  Alcotest.(check bool) "required switch stuck-open" false
    (Matching.row_matches ~fm ~fm_row:0 ~cm ~cm_row:1);
  let sparse_cm = Bmatrix.of_int_lists [ [ 0; 1; 0 ] ] in
  Alcotest.(check bool) "FM 0 accepts CM 0" true
    (Matching.row_matches ~fm ~fm_row:1 ~cm:sparse_cm ~cm_row:0)

(* The fit relation is the paper's matching matrix (Fig. 8(c)) with
   0 = fits read as [true]. *)
let test_matching_matrix () =
  let fm = Bmatrix.of_int_lists [ [ 1; 0 ]; [ 0; 1 ] ] in
  let cm = Bmatrix.of_int_lists [ [ 1; 0 ]; [ 0; 1 ] ] in
  let fits fm_row cm_row = Matching.row_matches ~fm ~fm_row ~cm ~cm_row in
  Alcotest.(check bool) "diag fits" true (fits 0 0 && fits 1 1);
  Alcotest.(check bool) "off-diag does not" false (fits 0 1 || fits 1 0)

let test_check_assignment_rejects () =
  let fm = Bmatrix.of_int_lists [ [ 1; 0 ]; [ 0; 1 ] ] in
  let cm = Bmatrix.create ~rows:3 ~cols:2 true in
  let check name expected a =
    Alcotest.(check bool) name expected (Matching.check_assignment ~fm ~cm a)
  in
  check "valid" true [| 2; 0 |];
  check "duplicate target" false [| 1; 1 |];
  check "negative target" false [| 0; -1 |];
  check "out-of-range target" false [| 0; 3 |];
  check "too short" false [| 0 |];
  check "too long" false [| 0; 1; 2 |];
  Bmatrix.set cm 2 0 false;
  check "required switch stuck-open" false [| 2; 0 |]

(* Greedy first-fit dead-ends: r0 -> c0 and r1 -> c1 leave r2, which fits
   only c0, unplaced. The one augmenting path moves two earlier rows:
   r2 -> c0, r0 -> c1, r1 -> c2. *)
let chain_fm = Bmatrix.of_int_lists [ [ 0; 1; 0; 0 ]; [ 0; 0; 1; 0 ]; [ 1; 0; 0; 0 ] ]
let chain_cm = Bmatrix.of_int_lists [ [ 1; 1; 0; 0 ]; [ 0; 1; 1; 0 ]; [ 0; 0; 1; 1 ] ]

let test_assign_augmenting_path () =
  let fm = chain_fm and cm = chain_cm in
  let assign fm_rows cm_rows = Matching.assign ~fm ~fm_rows ~cm ~cm_rows in
  Alcotest.(check (option (array int))) "path of two moves" (Some [| 1; 2; 0 |])
    (assign [ 0; 1; 2 ] [ 0; 1; 2 ]);
  Alcotest.(check bool) "valid" true
    (Matching.check_assignment ~fm ~cm (Option.get (assign [ 0; 1; 2 ] [ 0; 1; 2 ])));
  Alcotest.(check (option (array int))) "results name CM rows, in fm_rows order"
    (Some [| 0; 1 |]) (assign [ 2; 0 ] [ 1; 0 ]);
  Alcotest.(check (option (array int))) "no fitting row" None (assign [ 2 ] [ 1; 2 ]);
  Alcotest.(check (option (array int))) "Hall violation" None (assign [ 0; 2 ] [ 0; 2 ]);
  Alcotest.(check (option (array int))) "more FM rows than CM rows" None
    (assign [ 0; 1 ] [ 1 ]);
  Alcotest.(check (option (array int))) "nothing to place" (Some [||]) (assign [] [])

let test_cm_of_defects () =
  let d = Defect_map.create ~rows:2 ~cols:2 in
  Defect_map.set d 0 1 Junction.Stuck_open;
  Defect_map.set d 1 0 Junction.Stuck_closed;
  let cm = Matching.cm_of_defects d in
  Alcotest.(check bool) "functional is 1" true (Bmatrix.get cm 0 0);
  Alcotest.(check bool) "open is 0" false (Bmatrix.get cm 0 1);
  Alcotest.(check bool) "closed is 0" false (Bmatrix.get cm 1 0)

(* ------------------------------------------------------------------ *)
(* Shared fixtures                                                    *)
(* ------------------------------------------------------------------ *)

let fig7_mo =
  let rows =
    [
      (Cube.of_string "11-", [| true; false |]);
      (Cube.of_string "-11", [| true; false |]);
      (Cube.of_string "1-1", [| false; true |]);
      (Cube.of_string "-11", [| false; true |]);
    ]
  in
  Mo_cover.create ~share:false ~n_inputs:3 ~n_outputs:2
    (List.map (fun (cube, outputs) -> { Mo_cover.cube; outputs }) rows)

let fig7_fm = Function_matrix.build fig7_mo

(* Brute-force feasibility over all row injections (small sizes only). *)
let brute_feasible fm cm =
  let n = Bmatrix.rows fm and m = Bmatrix.rows cm in
  let used = Array.make m false in
  let rec go i =
    if i = n then true
    else begin
      let rec pick t =
        if t = m then false
        else if (not used.(t)) && Matching.row_matches ~fm ~fm_row:i ~cm ~cm_row:t then begin
          used.(t) <- true;
          let ok = go (i + 1) in
          used.(t) <- false;
          ok || pick (t + 1)
        end
        else pick (t + 1)
      in
      pick 0
    end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Hybrid / Exact on concrete scenarios                                *)
(* ------------------------------------------------------------------ *)

let clean_cm rows cols = Bmatrix.create ~rows ~cols true

let test_hybrid_clean_crossbar () =
  let cm = clean_cm 6 10 in
  match Hybrid.map fig7_fm cm with
  | Some assignment ->
    Alcotest.(check bool) "valid" true
      (Matching.check_assignment ~fm:fig7_fm.Function_matrix.matrix ~cm assignment)
  | None -> Alcotest.fail "hybrid must map onto a defect-free crossbar"

let test_exact_clean_crossbar () =
  let cm = clean_cm 6 10 in
  Alcotest.(check bool) "feasible" true (Exact.feasible fig7_fm cm)

let fig7_defective_cm () =
  (* Stuck-opens chosen so that the identity placement fails but a
     permutation exists (the Fig. 7 situation). *)
  let cm = clean_cm 6 10 in
  Bmatrix.set cm 0 0 false;
  (* m1 = x1 x2 needs col 0 *)
  Bmatrix.set cm 2 6 false;
  (* row 2 cannot host any O1-connected product (col 6 = O1 comp) *)
  cm

let test_hybrid_avoids_defects () =
  let cm = fig7_defective_cm () in
  let identity = Array.init 6 Fun.id in
  Alcotest.(check bool) "identity invalid" false
    (Matching.check_assignment ~fm:fig7_fm.Function_matrix.matrix ~cm identity);
  match Hybrid.map fig7_fm cm with
  | Some assignment ->
    Alcotest.(check bool) "hybrid mapping valid" true
      (Matching.check_assignment ~fm:fig7_fm.Function_matrix.matrix ~cm assignment)
  | None -> Alcotest.fail "hybrid should find the Fig. 7 mapping"

let test_exact_agrees_with_brute_force_fig7 () =
  let cm = fig7_defective_cm () in
  Alcotest.(check bool) "exact = brute force" (brute_feasible fig7_fm.Function_matrix.matrix cm)
    (Exact.feasible fig7_fm cm)

let test_hybrid_backtracking_needed () =
  (* Force the greedy first-fit into a corner: f(x1,x2) with products
     m0 = x1, m1 = x1 x2 over one output.
     FM (cols x1 x2 x1' x2' O O'):
       m0: 1 0 0 0 0 1
       m1: 1 1 0 0 0 1
       O : 0 0 0 0 1 1
     CM: row0 all-functional; row1 lacks x2 (kills m1, accepts m0);
         row2 lacks x1 (kills both products, accepts the output row).
     Greedy sends m0 to row0; m1 then fits only row0, so backtracking must
     relocate m0 to row1. *)
  let f =
    Mo_cover.create ~n_inputs:2 ~n_outputs:1
      [
        { Mo_cover.cube = Cube.of_string "1-"; outputs = [| true |] };
        { Mo_cover.cube = Cube.of_string "11"; outputs = [| true |] };
      ]
  in
  let fm = Function_matrix.build f in
  let cm = clean_cm 3 6 in
  Bmatrix.set cm 1 1 false;
  Bmatrix.set cm 2 0 false;
  let assignment, stats = Hybrid.map_with_stats fm cm in
  (match assignment with
  | Some a ->
    Alcotest.(check bool) "valid after backtracking" true
      (Matching.check_assignment ~fm:fm.Function_matrix.matrix ~cm a)
  | None -> Alcotest.fail "hybrid should succeed via backtracking");
  Alcotest.(check bool) "backtracking was exercised" true (stats.Hybrid.backtracks >= 1)

let test_hybrid_stats_clean () =
  (* On a defect-free crossbar every greedy placement succeeds first try,
     so both counters must stay at zero. *)
  let cm = clean_cm 6 10 in
  let assignment, stats = Hybrid.map_with_stats fig7_fm cm in
  Alcotest.(check bool) "mapped" true (assignment <> None);
  Alcotest.(check int) "no backtracks" 0 stats.Hybrid.backtracks;
  Alcotest.(check int) "no relocations" 0 stats.Hybrid.relocations

let test_hybrid_stats_relocation_counted () =
  (* The rigged instance from test_hybrid_backtracking_needed: one product
     must be relocated, so relocations >= 1 and backtracks >= 1. *)
  let f =
    Mo_cover.create ~n_inputs:2 ~n_outputs:1
      [
        { Mo_cover.cube = Cube.of_string "1-"; outputs = [| true |] };
        { Mo_cover.cube = Cube.of_string "11"; outputs = [| true |] };
      ]
  in
  let fm = Function_matrix.build f in
  let cm = clean_cm 3 6 in
  Bmatrix.set cm 1 1 false;
  Bmatrix.set cm 2 0 false;
  let assignment, stats = Hybrid.map_with_stats fm cm in
  Alcotest.(check bool) "mapped" true (assignment <> None);
  Alcotest.(check bool) "backtracks counted" true (stats.Hybrid.backtracks >= 1);
  Alcotest.(check bool) "relocations counted" true (stats.Hybrid.relocations >= 1);
  Alcotest.(check bool) "relocations within backtrack attempts" true
    (stats.Hybrid.relocations <= stats.Hybrid.backtracks * Bmatrix.rows cm)

let test_hybrid_incomplete_vs_exact () =
  (* A case where depth-1 backtracking fails but a full assignment exists:
     three minterm-like rows m0 {0}, m1 {1}, m2 {0,1} with CM rows
     r0 {0,1,out...}, r1 {0...}, r2 {1...}: greedy m0->r0, m1->r2,
     m2 needs r0; relocation of m0 must go to r1 — that works actually.
     Harder: make relocation impossible but a 3-way rotation valid. *)
  let f =
    Mo_cover.create ~n_inputs:2 ~n_outputs:1
      [
        { Mo_cover.cube = Cube.of_string "1-"; outputs = [| true |] };
        { Mo_cover.cube = Cube.of_string "-1"; outputs = [| true |] };
        { Mo_cover.cube = Cube.of_string "11"; outputs = [| true |] };
      ]
  in
  let fm = Function_matrix.build f in
  let cm = clean_cm 4 6 in
  (* Whatever the outcome, hybrid must never return an invalid mapping and
     exact must agree with brute force. *)
  (match Hybrid.map fm cm with
  | Some a ->
    Alcotest.(check bool) "hybrid result valid" true
      (Matching.check_assignment ~fm:fm.Function_matrix.matrix ~cm a)
  | None -> ());
  Alcotest.(check bool) "exact = brute" (brute_feasible fm.Function_matrix.matrix cm)
    (Exact.feasible fm cm)

(* ------------------------------------------------------------------ *)
(* Integration: mapping -> layout -> simulation                        *)
(* ------------------------------------------------------------------ *)

let test_mapping_to_simulation () =
  let prng = Prng.create 2024 in
  let successes = ref 0 in
  for _ = 1 to 50 do
    let d =
      Defect_map.random prng ~rows:6 ~cols:10 ~open_rate:0.1 ~closed_rate:0.
    in
    let cm = Matching.cm_of_defects d in
    match Exact.map fig7_fm cm with
    | Some assignment ->
      incr successes;
      let layout = Layout.place ~row_assignment:assignment fig7_fm in
      Alcotest.(check bool) "mapped crossbar computes the function" true
        (Sim.agrees_with_reference ~defects:d layout)
    | None -> ()
  done;
  Alcotest.(check bool) "some samples mapped" true (!successes > 10)

(* ------------------------------------------------------------------ *)
(* Redundant                                                          *)
(* ------------------------------------------------------------------ *)

let test_redundant_tolerates_closed () =
  (* One stuck-closed defect in the optimum area: without spares mapping is
     impossible; with one spare row and column the mapper must dodge it. *)
  let d = Defect_map.create ~rows:7 ~cols:11 in
  Defect_map.set d 2 3 Junction.Stuck_closed;
  let prng = Prng.create 5 in
  (match Redundant.map ~prng ~algorithm:`Exact fig7_fm d with
  | Some placement ->
    Alcotest.(check bool) "placement verifies" true (Redundant.verify fig7_fm d placement);
    let layout =
      Layout.place ~row_assignment:placement.Redundant.row_assignment
        ~col_assignment:placement.Redundant.col_assignment ~physical_rows:7
        ~physical_cols:11 fig7_fm
    in
    Alcotest.(check bool) "sim correct under closed defect" true
      (Sim.agrees_with_reference ~defects:d layout)
  | None -> Alcotest.fail "redundant mapping should succeed with spares");
  (* Optimum size + closed defect: infeasible (the paper's §IV.A claim). *)
  let tight = Defect_map.create ~rows:6 ~cols:10 in
  Defect_map.set tight 2 3 Junction.Stuck_closed;
  Alcotest.(check bool) "no tolerance without redundancy" true
    (Redundant.map ~prng ~algorithm:`Exact fig7_fm tight = None)

let test_redundant_open_only_matches_exact () =
  (* With open defects only and no spares, the first (greedy) attempt is
     the identity column choice, so redundant mapping succeeds whenever the
     plain exact mapping does. (The converse does not hold: the randomized
     retries may re-role columns and rescue instances fixed-column mapping
     cannot.) *)
  for seed = 1 to 30 do
    let prng = Prng.create seed in
    let d = Defect_map.random prng ~rows:6 ~cols:10 ~open_rate:0.08 ~closed_rate:0. in
    let direct = Exact.feasible fig7_fm (Matching.cm_of_defects d) in
    let redundant = Redundant.map ~prng ~algorithm:`Exact fig7_fm d <> None in
    Alcotest.(check bool) "exact feasible => redundant feasible" true
      ((not direct) || redundant)
  done

(* ------------------------------------------------------------------ *)
(* Hybrid ordering                                                    *)
(* ------------------------------------------------------------------ *)

let test_hardest_first_sound () =
  for seed = 1 to 40 do
    let p = Prng.create seed in
    let d = Defect_map.random p ~rows:6 ~cols:10 ~open_rate:0.12 ~closed_rate:0. in
    let cm = Matching.cm_of_defects d in
    match Hybrid.map ~order:Hybrid.Hardest_first fig7_fm cm with
    | Some a ->
      Alcotest.(check bool) "hardest-first valid" true
        (Matching.check_assignment ~fm:fig7_fm.Function_matrix.matrix ~cm a)
    | None -> ()
  done

(* ------------------------------------------------------------------ *)
(* Repair                                                             *)
(* ------------------------------------------------------------------ *)

let test_repair_untouched () =
  let fm = fig7_fm.Function_matrix.matrix in
  let cm = clean_cm 6 10 in
  let identity = Array.init 6 Fun.id in
  match Repair.repair ~fm ~cm identity with
  | Some { Repair.assignment; rows_touched } ->
    Alcotest.(check int) "nothing moved" 0 rows_touched;
    Alcotest.(check (array int)) "same assignment" identity assignment
  | None -> Alcotest.fail "clean crossbar must repair trivially"

let test_repair_single_fault () =
  let fm = fig7_fm.Function_matrix.matrix in
  let cm = clean_cm 6 10 in
  (* break m1's x1 junction under the identity placement *)
  Bmatrix.set cm 0 0 false;
  let identity = Array.init 6 Fun.id in
  match Repair.repair ~fm ~cm identity with
  | Some { Repair.assignment; rows_touched } ->
    Alcotest.(check bool) "valid after repair" true
      (Matching.check_assignment ~fm ~cm assignment);
    Alcotest.(check bool) "local repair (at most 2 rows)" true (rows_touched <= 2)
  | None -> Alcotest.fail "single fault must be repairable"

let test_repair_falls_back_to_remap () =
  (* Rig a CM where local swaps fail but a full remap succeeds: chain of
     dependencies requiring a 3-rotation. Rather than constructing one by
     hand, fuzz until a case with rows_touched > 2 appears, then check
     validity. Validity of every result is the real assertion. *)
  let fm = fig7_fm.Function_matrix.matrix in
  for seed = 1 to 60 do
    let p = Prng.create (1000 + seed) in
    let d = Defect_map.random p ~rows:6 ~cols:10 ~open_rate:0.15 ~closed_rate:0. in
    let cm = Matching.cm_of_defects d in
    (* start from any exact mapping on a weaker defect map, then age it *)
    match Exact.map_matrix fm (clean_cm 6 10) with
    | None -> Alcotest.fail "clean must map"
    | Some initial -> (
      match Repair.repair ~fm ~cm initial with
      | Some { Repair.assignment; _ } ->
        Alcotest.(check bool) "repair result valid" true
          (Matching.check_assignment ~fm ~cm assignment)
      | None ->
        (* repair failing must mean the instance is infeasible *)
        Alcotest.(check bool) "None only when infeasible" true
          (Exact.map_matrix fm cm = None))
  done

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                  *)
(* ------------------------------------------------------------------ *)

let gen_small_instance =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* open_rate = float_range 0.0 0.3 in
    pure (seed, open_rate))

let small_fm =
  (* 3 products, 2 outputs over 3 inputs: small enough for brute force. *)
  Function_matrix.build fig7_mo

let prop_exact_is_exact =
  QCheck2.Test.make ~name:"exact agrees with brute-force feasibility" ~count:300
    gen_small_instance
    (fun (seed, open_rate) ->
      let prng = Prng.create seed in
      let d = Defect_map.random prng ~rows:6 ~cols:10 ~open_rate ~closed_rate:0. in
      let cm = Matching.cm_of_defects d in
      Bool.equal (Exact.feasible small_fm cm)
        (brute_feasible small_fm.Function_matrix.matrix cm))

let prop_hybrid_sound =
  QCheck2.Test.make ~name:"hybrid success implies valid assignment" ~count:300
    gen_small_instance
    (fun (seed, open_rate) ->
      let prng = Prng.create seed in
      let d = Defect_map.random prng ~rows:6 ~cols:10 ~open_rate ~closed_rate:0. in
      let cm = Matching.cm_of_defects d in
      match Hybrid.map small_fm cm with
      | Some a -> Matching.check_assignment ~fm:small_fm.Function_matrix.matrix ~cm a
      | None -> true)

let prop_hybrid_implies_exact =
  QCheck2.Test.make ~name:"hybrid success implies exact success" ~count:300
    gen_small_instance
    (fun (seed, open_rate) ->
      let prng = Prng.create seed in
      let d = Defect_map.random prng ~rows:6 ~cols:10 ~open_rate ~closed_rate:0. in
      let cm = Matching.cm_of_defects d in
      (Hybrid.map small_fm cm = None) || Exact.feasible small_fm cm)

let prop_exact_sound =
  QCheck2.Test.make ~name:"exact assignments are valid" ~count:300 gen_small_instance
    (fun (seed, open_rate) ->
      let prng = Prng.create seed in
      let d = Defect_map.random prng ~rows:6 ~cols:10 ~open_rate ~closed_rate:0. in
      let cm = Matching.cm_of_defects d in
      match Exact.map small_fm cm with
      | Some a -> Matching.check_assignment ~fm:small_fm.Function_matrix.matrix ~cm a
      | None -> true)

let prop_redundant_sound =
  QCheck2.Test.make ~name:"redundant placements verify" ~count:150
    QCheck2.Gen.(pair (int_bound 1_000_000) (float_range 0.0 0.05))
    (fun (seed, closed_rate) ->
      let prng = Prng.create seed in
      let d =
        Defect_map.random prng ~rows:9 ~cols:13 ~open_rate:0.05 ~closed_rate
      in
      match Redundant.map ~prng ~algorithm:`Hybrid small_fm d with
      | Some placement -> Redundant.verify small_fm d placement
      | None -> true)

(* Random FM/CM pairs with 0 <= n <= m <= 130 rows: half the CM row
   counts straddle the 63- and 126-bit word boundaries of the matcher's
   bitsets, and n is often 0 or m. The densities give roughly 3 feasible
   instances per infeasible one, and a fifth need the alternating-path
   search after the greedy pass. *)
let gen_fit_instance =
  QCheck2.Gen.(
    let* m = oneof [ int_range 0 130; oneofl [ 0; 1; 62; 63; 64; 125; 126; 127; 130 ] ] in
    let* n = frequency [ (1, pure 0); (3, pure m); (3, int_range 0 m) ] in
    let* cols = int_range 1 10 in
    let* required = float_range 0.1 0.6 in
    let* open_rate = float_range 0.1 0.7 in
    let* seed = int_bound 1_000_000 in
    pure (n, m, cols, required, open_rate, seed))

let fit_instance (n, m, cols, required, open_rate, seed) =
  let prng = Prng.create seed in
  let random rows p =
    let b = Bmatrix.create ~rows ~cols false in
    for i = 0 to rows - 1 do
      for j = 0 to cols - 1 do
        if Prng.bernoulli prng p then Bmatrix.set b i j true
      done
    done;
    b
  in
  (random n required, random m (1. -. open_rate))

let prop_assign_agrees_with_munkres =
  QCheck2.Test.make ~name:"assign agrees with weighted feasibility" ~count:300
    gen_fit_instance
    (fun params ->
      let fm, cm = fit_instance params in
      let n = Bmatrix.rows fm and m = Bmatrix.rows cm in
      let cost =
        Array.init n (fun fm_row ->
            Array.init m (fun cm_row ->
                if Matching.row_matches ~fm ~fm_row ~cm ~cm_row then 0 else 1))
      in
      match
        ( Matching.assign ~fm ~fm_rows:(List.init n Fun.id) ~cm ~cm_rows:(List.init m Fun.id),
          Munkres.feasible_zero cost )
      with
      | Some a, Some _ -> Matching.check_assignment ~fm ~cm a
      | None, None -> true
      | Some _, None | None, Some _ -> false)

(* ------------------------------------------------------------------ *)
(* Differential: the fit-set core against the per-cell references      *)
(* ------------------------------------------------------------------ *)

(* Random FM/CM pairs for [assign] with 1-200 CM rows, so the position
   bitsets cross the 63- and 126-bit word edges, and up to 70 columns,
   so the matrices' own rows cross one. [fm_rows] and [cm_rows] come in
   ascending or shuffled order, and [cm_rows] may leave rows out. *)
let gen_assign_instance =
  QCheck2.Gen.(
    let* m = oneof [ int_range 1 200; oneofl [ 1; 62; 63; 64; 125; 126; 127; 189; 200 ] ] in
    let* n = frequency [ (3, pure m); (3, int_range 0 m); (1, int_range m (m + 3)) ] in
    let* spare = int_range 0 3 in
    let* cols = int_range 1 70 in
    let* required = float_range 0.02 0.3 in
    let* open_rate = float_range 0. 0.4 in
    let* shuffle = bool in
    let+ seed = int_bound 1_000_000 in
    (n, m, spare, cols, required, open_rate, shuffle, seed))

let assign_instance (n, m, spare, cols, required, open_rate, shuffle, seed) =
  let prng = Prng.create seed in
  let random rows p =
    let b = Bmatrix.create ~rows ~cols false in
    for i = 0 to rows - 1 do
      for j = 0 to cols - 1 do
        if Prng.bernoulli prng p then Bmatrix.set b i j true
      done
    done;
    b
  in
  let fm = random n required and cm = random (m + spare) (1. -. open_rate) in
  let order rows =
    let a = Array.of_list rows in
    if shuffle then Prng.shuffle_in_place prng a;
    Array.to_list a
  in
  let cm_rows =
    List.filter (fun _ -> spare = 0 || Prng.bernoulli prng 0.9) (List.init (m + spare) Fun.id)
  in
  (fm, order (List.init n Fun.id), cm, order cm_rows)

let test_assign_matches_reference () =
  let feasible = ref 0 and cases = ref 0 in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~name:"assign = per-cell reference" ~count:400 gen_assign_instance
       (fun params ->
         let fm, fm_rows, cm, cm_rows = assign_instance params in
         let got = Matching.assign ~fm ~fm_rows ~cm ~cm_rows in
         incr cases;
         if Option.is_some got then incr feasible;
         Option.equal ( = ) got (Mapping_reference.assign ~fm ~fm_rows ~cm ~cm_rows)));
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d feasible: both answers common" !feasible !cases)
    true
    (!feasible * 5 >= !cases && (!cases - !feasible) * 5 >= !cases)

(* Random two-level covers whose optimum crossbars, plus 0-4 spare rows,
   have 3-200 rows, with dense products (each literal present with
   probability 0.3-0.9) and 0-40% stuck-open junctions. *)
let gen_hybrid_instance =
  QCheck2.Gen.(
    let* n_products =
      oneof [ int_range 1 190; oneofl [ 58; 59; 60; 61; 62; 121; 122; 123; 124; 125; 190 ] ]
    in
    let* n_inputs = int_range 2 10 in
    let* n_outputs = int_range 1 4 in
    let* density = float_range 0.3 0.9 in
    let* spare = int_range 0 4 in
    let* open_rate = float_range 0. 0.4 in
    let+ seed = int_bound 1_000_000 in
    (n_products, n_inputs, n_outputs, density, spare, open_rate, seed))

let hybrid_instance (n_products, n_inputs, n_outputs, density, spare, open_rate, seed) =
  let prng = Prng.create seed in
  let product _ =
    let literal _ =
      if not (Prng.bernoulli prng density) then Literal.Absent
      else if Prng.bool prng then Literal.Pos
      else Literal.Neg
    in
    let cube = Cube.of_literals (Array.init n_inputs literal) in
    let k = Prng.int prng n_outputs in
    { Mo_cover.cube; outputs = Array.init n_outputs (fun o -> o = k || Prng.bernoulli prng 0.3) }
  in
  let fm =
    Function_matrix.build
      (Mo_cover.create ~share:false ~n_inputs ~n_outputs (List.init n_products product))
  in
  let rows = Geometry.rows fm.Function_matrix.geometry + spare in
  let cols = Geometry.cols fm.Function_matrix.geometry in
  let cm = Bmatrix.create ~rows ~cols false in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if not (Prng.bernoulli prng open_rate) then Bmatrix.set cm i j true
    done
  done;
  (fm, cm)

let test_hybrid_matches_reference () =
  let cases = ref 0 and backtracked = ref 0 and relocated = ref 0 in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~name:"hybrid = per-cell reference" ~count:300 gen_hybrid_instance
       (fun params ->
         let fm, cm = hybrid_instance params in
         List.for_all
           (fun order ->
             let got, stats = Hybrid.map_with_stats ~order fm cm in
             let want, want_stats = Mapping_reference.hybrid_map_with_stats ~order fm cm in
             incr cases;
             if stats.Hybrid.backtracks > 0 then incr backtracked;
             if stats.Hybrid.relocations > 0 then incr relocated;
             Option.equal ( = ) got want
             && stats.Hybrid.backtracks = want_stats.Hybrid.backtracks
             && stats.Hybrid.relocations = want_stats.Hybrid.relocations)
           [ Hybrid.Top_down; Hybrid.Hardest_first ]));
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d runs backtrack, %d relocate" !backtracked !cases !relocated)
    true
    (!backtracked * 3 >= !cases && !relocated * 4 >= !cases)

(* Stuck-closed maps with spare lines: the restricted crossbar matrix
   built from the planes gives the same placement as one restricted
   junction by junction. *)
let test_redundant_matches_reference () =
  let cases = ref 0 and placed = ref 0 in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~name:"redundant = per-cell restricted CM" ~count:200
       QCheck2.Gen.(
         let* spare_rows = int_range 0 3 in
         let* spare_cols = int_range 0 4 in
         let* closed_rate = float_range 0.005 0.08 in
         let* open_rate = float_range 0. 0.15 in
         let* algorithm = oneofl [ `Hybrid; `Exact ] in
         let+ seed = int_bound 1_000_000 in
         (spare_rows, spare_cols, closed_rate, open_rate, algorithm, seed))
       (fun (spare_rows, spare_cols, closed_rate, open_rate, algorithm, seed) ->
         let rows = 6 + spare_rows and cols = 10 + spare_cols in
         let d = Defect_map.random (Prng.create seed) ~rows ~cols ~open_rate ~closed_rate in
         let got = Redundant.map ~prng:(Prng.create (seed + 1)) ~algorithm fig7_fm d in
         let want =
           Mapping_reference.redundant_map ~prng:(Prng.create (seed + 1)) ~algorithm fig7_fm d
         in
         incr cases;
         if Option.is_some got then incr placed;
         Option.equal
           (fun a b ->
             a.Redundant.row_assignment = b.Redundant.row_assignment
             && a.Redundant.col_assignment = b.Redundant.col_assignment)
           got want));
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d placed" !placed !cases)
    true
    (!placed * 4 >= !cases && (!cases - !placed) * 10 >= !cases)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_munkres_optimal;
      prop_assign_agrees_with_munkres;
      prop_exact_is_exact;
      prop_hybrid_sound;
      prop_hybrid_implies_exact;
      prop_exact_sound;
      prop_redundant_sound;
    ]

let () =
  Alcotest.run "mcx_mapping"
    [
      ( "munkres",
        [
          Alcotest.test_case "identity" `Quick test_munkres_identity;
          Alcotest.test_case "classic" `Quick test_munkres_classic;
          Alcotest.test_case "rectangular" `Quick test_munkres_rectangular;
          Alcotest.test_case "empty" `Quick test_munkres_empty;
          Alcotest.test_case "single row" `Quick test_munkres_single_row;
          Alcotest.test_case "all zero" `Quick test_munkres_all_zero;
          Alcotest.test_case "rejects empty rows" `Quick test_munkres_rejects_empty_rows;
          Alcotest.test_case "infeasible zero" `Quick test_munkres_infeasible_zero;
          Alcotest.test_case "rejects tall" `Quick test_munkres_rejects_tall;
        ] );
      ( "matching",
        [
          Alcotest.test_case "row matches" `Quick test_row_matches;
          Alcotest.test_case "matching matrix" `Quick test_matching_matrix;
          Alcotest.test_case "check assignment rejects" `Quick test_check_assignment_rejects;
          Alcotest.test_case "assign augmenting path" `Quick test_assign_augmenting_path;
          Alcotest.test_case "cm of defects" `Quick test_cm_of_defects;
        ] );
      ( "algorithms",
        [
          Alcotest.test_case "hybrid on clean crossbar" `Quick test_hybrid_clean_crossbar;
          Alcotest.test_case "exact on clean crossbar" `Quick test_exact_clean_crossbar;
          Alcotest.test_case "hybrid avoids defects (fig7)" `Quick test_hybrid_avoids_defects;
          Alcotest.test_case "exact vs brute (fig7)" `Quick test_exact_agrees_with_brute_force_fig7;
          Alcotest.test_case "backtracking exercised" `Quick test_hybrid_backtracking_needed;
          Alcotest.test_case "stats clean" `Quick test_hybrid_stats_clean;
          Alcotest.test_case "stats relocation" `Quick test_hybrid_stats_relocation_counted;
          Alcotest.test_case "hybrid never invalid" `Quick test_hybrid_incomplete_vs_exact;
        ] );
      ( "integration",
        [ Alcotest.test_case "mapping feeds simulation" `Quick test_mapping_to_simulation ] );
      ( "ordering",
        [ Alcotest.test_case "hardest-first sound" `Quick test_hardest_first_sound ] );
      ( "repair",
        [
          Alcotest.test_case "untouched when valid" `Quick test_repair_untouched;
          Alcotest.test_case "single fault" `Quick test_repair_single_fault;
          Alcotest.test_case "fallback to remap" `Quick test_repair_falls_back_to_remap;
        ] );
      ( "redundant",
        [
          Alcotest.test_case "tolerates stuck-closed with spares" `Quick
            test_redundant_tolerates_closed;
          Alcotest.test_case "open-only equals exact" `Quick
            test_redundant_open_only_matches_exact;
        ] );
      ("properties", qcheck_cases);
      (* Suite names stay within 11 characters ("integration"): a longer
         one widens the printed name column and so changes how the long
         property names above are truncated in the report. *)
      ( "reference",
        [
          Alcotest.test_case "assign = per-cell reference" `Quick test_assign_matches_reference;
          Alcotest.test_case "hybrid = per-cell reference" `Quick test_hybrid_matches_reference;
          Alcotest.test_case "redundant = per-cell restricted CM" `Quick
            test_redundant_matches_reference;
        ] );
    ]
