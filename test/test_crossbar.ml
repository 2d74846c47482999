open Mcx_crossbar
open Mcx_logic

let cover = Cover.of_strings

(* f = x1 + x2 + x3 + x4 + x5 x6 x7 x8 (paper running example). *)
let paper_cover =
  cover [ "1-------"; "-1------"; "--1-----"; "---1----"; "----1111" ]

let paper_mo = Mo_cover.of_single paper_cover

(* O1 = x1 x2 + x2 x3, O2 = x1 x3 + x2 x3, products kept unshared so the
   dimensions match Fig. 8's 6x10 matrices. *)
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

(* ------------------------------------------------------------------ *)
(* Junction                                                           *)
(* ------------------------------------------------------------------ *)

let test_junction_store () =
  Alcotest.(check bool) "functional keeps value" false
    (Junction.store Junction.Functional false);
  Alcotest.(check bool) "stuck-open reads 1" true (Junction.store Junction.Stuck_open false);
  Alcotest.(check bool) "stuck-closed reads 0" false
    (Junction.store Junction.Stuck_closed true);
  Alcotest.(check bool) "reset is R_OFF" true (Junction.reset_value Junction.Functional);
  Alcotest.(check bool) "snider convention" true Junction.logic_of_resistance_high

(* ------------------------------------------------------------------ *)
(* Defect_map                                                         *)
(* ------------------------------------------------------------------ *)

let test_defect_map_random_rates () =
  let prng = Mcx_util.Prng.create 7 in
  let d = Defect_map.random prng ~rows:100 ~cols:100 ~open_rate:0.1 ~closed_rate:0.05 in
  let opens = Defect_map.count d Junction.Stuck_open in
  let closeds = Defect_map.count d Junction.Stuck_closed in
  Alcotest.(check bool) "about 10% open" true (opens > 800 && opens < 1200);
  Alcotest.(check bool) "about 5% closed" true (closeds > 350 && closeds < 650)

let test_defect_map_usable_lines () =
  let d = Defect_map.create ~rows:3 ~cols:3 in
  Defect_map.set d 1 2 Junction.Stuck_closed;
  Alcotest.(check (list int)) "rows 0,2 usable" [ 0; 2 ] (Defect_map.usable_rows d);
  Alcotest.(check (list int)) "cols 0,1 usable" [ 0; 1 ] (Defect_map.usable_cols d);
  Alcotest.(check bool) "row flag" true (Defect_map.row_has_closed d 1);
  Alcotest.(check bool) "open does not block line" true
    (Defect_map.set d 0 0 Junction.Stuck_open;
     not (Defect_map.row_has_closed d 0))

let test_defect_map_bad_rates () =
  let prng = Mcx_util.Prng.create 7 in
  Alcotest.(check bool) "rates > 1 rejected" true
    (try
       ignore (Defect_map.random prng ~rows:2 ~cols:2 ~open_rate:0.8 ~closed_rate:0.3);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Geometry                                                           *)
(* ------------------------------------------------------------------ *)

let test_geometry_fig3_dims () =
  (* Fig. 3: 8 inputs, 1 output, 5 products, with the IL row: 7 x 18. *)
  let g = Geometry.create ~include_il_row:true ~n_inputs:8 ~n_outputs:1 ~n_products:5 () in
  Alcotest.(check int) "rows" 7 (Geometry.rows g);
  Alcotest.(check int) "cols" 18 (Geometry.cols g);
  Alcotest.(check int) "area" 126 (Geometry.area g)

let test_geometry_table_model () =
  let g = Geometry.create ~n_inputs:8 ~n_outputs:1 ~n_products:5 () in
  Alcotest.(check int) "no IL row: 6 rows" 6 (Geometry.rows g);
  Alcotest.(check int) "area 108" 108 (Geometry.area g)

let test_geometry_role_roundtrip () =
  let g = Geometry.create ~include_il_row:true ~n_inputs:3 ~n_outputs:2 ~n_products:4 () in
  for j = 0 to Geometry.cols g - 1 do
    Alcotest.(check int) "column roundtrip" j
      (Geometry.column_of_role g (Geometry.column_role g j))
  done;
  for i = 0 to Geometry.rows g - 1 do
    Alcotest.(check int) "row roundtrip" i (Geometry.row_of_role g (Geometry.row_role g i))
  done

let test_geometry_literal_columns () =
  let g = Geometry.create ~n_inputs:3 ~n_outputs:1 ~n_products:2 () in
  Alcotest.(check int) "x1 col" 1 (Geometry.column_of_literal g ~var:1 Literal.Pos);
  Alcotest.(check int) "x1' col" 4 (Geometry.column_of_literal g ~var:1 Literal.Neg);
  Alcotest.(check bool) "absent rejected" true
    (try
       ignore (Geometry.column_of_literal g ~var:1 Literal.Absent);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Function_matrix / Cost — the paper's headline numbers              *)
(* ------------------------------------------------------------------ *)

let test_fig3_cost () =
  let report = Cost.two_level ~include_il_row:true paper_mo in
  Alcotest.(check int) "area 126" 126 report.Cost.area;
  Alcotest.(check int) "31 switches" 31 report.Cost.switches;
  Alcotest.(check bool) "IR ~25%" true
    (report.Cost.inclusion_ratio > 24. && report.Cost.inclusion_ratio < 26.)

let test_table2_closed_form_areas () =
  (* Every (I, O, P, area) row of Table II against the closed form
     (with the paper's bw/sqrt8 typos corrected, see DESIGN.md). *)
  let rows =
    [
      ("rd53", 5, 3, 31, 544);
      ("squar5", 5, 8, 25, 858);
      ("bw", 5, 28, 22, 3300);
      ("inc", 7, 9, 30, 1248);
      ("misex1", 8, 7, 12, 570);
      ("sqrt8", 8, 4, 29, 792);
      ("sao2", 10, 4, 58, 1736);
      ("rd73", 7, 3, 127, 2600);
      ("clip", 9, 5, 120, 3500);
      ("rd84", 8, 4, 255, 6216);
      ("ex1010", 10, 10, 284, 11760);
      ("table3", 14, 14, 175, 10584);
      ("exp5", 8, 63, 74, 19454);
      ("apex4", 9, 19, 436, 25480);
      ("alu4", 14, 8, 575, 25652);
    ]
  in
  List.iter
    (fun (name, i, o, p, expected) ->
      Alcotest.(check int) name expected
        (Cost.two_level_area ~n_inputs:i ~n_outputs:o ~n_products:p ()))
    rows

let test_fig5_multilevel_cost () =
  let mapped = Mcx_netlist.Tech_map.map_cover paper_cover in
  let report = Cost.multi_level mapped in
  Alcotest.(check int) "3 rows" 3 report.Cost.rows;
  Alcotest.(check int) "19 cols" 19 report.Cost.cols;
  Alcotest.(check int) "area 57 (paper prints 59; 3x19=57)" 57 report.Cost.area

let test_fm_structure () =
  let fm = Function_matrix.build fig7_mo in
  let g = fm.Function_matrix.geometry in
  Alcotest.(check int) "6 rows" 6 (Geometry.rows g);
  Alcotest.(check int) "10 cols" 10 (Geometry.cols g);
  Alcotest.(check (list int)) "FMm rows" [ 0; 1; 2; 3 ]
    (Function_matrix.minterm_row_indices fm);
  Alcotest.(check (list int)) "FMo rows" [ 4; 5 ] (Function_matrix.output_row_indices fm);
  (* m1 = x1 x2 of O1: literals at cols 0,1 and a connection on O1's
     complement column. *)
  let m = fm.Function_matrix.matrix in
  Alcotest.(check bool) "m1 x1" true (Mcx_util.Bmatrix.get m 0 0);
  Alcotest.(check bool) "m1 x2" true (Mcx_util.Bmatrix.get m 0 1);
  Alcotest.(check int) "m1 row has 3 switches" 3 (Mcx_util.Bmatrix.count_row m 0);
  Alcotest.(check int) "output rows have 2 switches" 2 (Mcx_util.Bmatrix.count_row m 4);
  (* switches: 8 literals + 4 connections + 2x2 output pairs = 16 *)
  Alcotest.(check int) "switch count" 16 (Function_matrix.switch_count fm)

let test_dual_choice () =
  (* A function whose complement has fewer products: f with many products,
     f' = one cube. f' = x0 x1 x2 -> f = x0' + x1' + x2' (3 products). *)
  let f = cover [ "0--"; "-0-"; "--0" ] in
  let mo = Mo_cover.of_single f in
  let chosen, report, used_dual = Cost.dual_choice mo in
  Alcotest.(check bool) "dual chosen" true used_dual;
  Alcotest.(check int) "dual has 1 product" 1 (Mo_cover.product_count chosen);
  Alcotest.(check int) "dual area (1+1)*(6+2)" 16 report.Cost.area

(* ------------------------------------------------------------------ *)
(* Layout                                                             *)
(* ------------------------------------------------------------------ *)

let test_layout_identity () =
  let layout = Layout.of_cover fig7_mo in
  Alcotest.(check int) "physical rows" 6 layout.Layout.physical_rows;
  Alcotest.(check bool) "program equals FM under identity" true
    (Mcx_util.Bmatrix.equal layout.Layout.program
       layout.Layout.fm.Function_matrix.matrix)

let test_layout_permutation () =
  let fm = Function_matrix.build fig7_mo in
  let layout = Layout.place ~row_assignment:[| 5; 4; 3; 2; 1; 0 |] fm in
  Alcotest.(check int) "row 0 lands on 5" 5 (Layout.physical_row_of_fm_row layout 0);
  (* m1's literals moved to physical row 5. *)
  Alcotest.(check bool) "program row 5 has m1's x1" true
    (Mcx_util.Bmatrix.get layout.Layout.program 5 0)

let test_layout_validation () =
  let fm = Function_matrix.build fig7_mo in
  Alcotest.(check bool) "duplicate target rejected" true
    (try
       ignore (Layout.place ~row_assignment:[| 0; 0; 1; 2; 3; 4 |] fm);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "short assignment rejected" true
    (try
       ignore (Layout.place ~row_assignment:[| 0; 1 |] fm);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "small physical grid rejected" true
    (try
       ignore (Layout.place ~physical_rows:3 fm);
       false
     with Invalid_argument _ -> true)

let test_layout_respects () =
  let layout = Layout.of_cover fig7_mo in
  let clean = Defect_map.create ~rows:6 ~cols:10 in
  Alcotest.(check bool) "clean crossbar ok" true (Layout.respects layout clean);
  let d = Defect_map.create ~rows:6 ~cols:10 in
  (* stuck-open on a required literal junction (m1, x1) invalidates. *)
  Defect_map.set d 0 0 Junction.Stuck_open;
  Alcotest.(check bool) "open on required switch fails" false (Layout.respects layout d);
  let d2 = Defect_map.create ~rows:6 ~cols:10 in
  (* stuck-open where the FM has a 0 is harmless. *)
  Defect_map.set d2 0 2 Junction.Stuck_open;
  Alcotest.(check bool) "open on spare switch fine" true (Layout.respects layout d2);
  let d3 = Defect_map.create ~rows:6 ~cols:10 in
  Defect_map.set d3 0 2 Junction.Stuck_closed;
  Alcotest.(check bool) "closed poisons the line" false (Layout.respects layout d3)

(* ------------------------------------------------------------------ *)
(* Sim (two-level)                                                    *)
(* ------------------------------------------------------------------ *)

let test_sim_paper_example () =
  let layout = Layout.of_cover ~include_il_row:true paper_mo in
  Alcotest.(check bool) "crossbar computes f" true (Sim.agrees_with_reference layout)

let test_sim_fig7 () =
  let layout = Layout.of_cover fig7_mo in
  Alcotest.(check bool) "crossbar computes O1, O2" true (Sim.agrees_with_reference layout)

let test_sim_permuted_rows () =
  let fm = Function_matrix.build fig7_mo in
  let layout = Layout.place ~row_assignment:[| 3; 1; 5; 0; 2; 4 |] fm in
  Alcotest.(check bool) "any row permutation computes the function" true
    (Sim.agrees_with_reference layout)

let test_sim_harmless_open_defect () =
  let layout = Layout.of_cover fig7_mo in
  let d = Defect_map.create ~rows:6 ~cols:10 in
  Defect_map.set d 0 2 Junction.Stuck_open (* FM is 0 there *);
  Alcotest.(check bool) "stuck-open on unused junction is harmless" true
    (Sim.agrees_with_reference ~defects:d layout)

let test_sim_harmful_open_defect () =
  let layout = Layout.of_cover fig7_mo in
  let d = Defect_map.create ~rows:6 ~cols:10 in
  Defect_map.set d 0 0 Junction.Stuck_open (* m1 needs x1 here *);
  Alcotest.(check bool) "stuck-open on a required literal breaks f" false
    (Sim.agrees_with_reference ~defects:d layout)

let test_sim_closed_defect_poisons () =
  let layout = Layout.of_cover fig7_mo in
  let d = Defect_map.create ~rows:6 ~cols:10 in
  Defect_map.set d 0 5 Junction.Stuck_closed;
  Alcotest.(check bool) "stuck-closed breaks the computation" false
    (Sim.agrees_with_reference ~defects:d layout)

let test_sim_open_defect_fixed_by_remapping () =
  (* The Fig. 7 scenario: defects break the naive placement; a different
     row assignment avoids them. Defect: stuck-open at (row 0, col 0).
     m1 = x1 x2 needs x1 there, but m2 = x2 x3 does not use col 0, so
     swapping m1 and m2 restores validity. *)
  let fm = Function_matrix.build fig7_mo in
  let d = Defect_map.create ~rows:6 ~cols:10 in
  Defect_map.set d 0 0 Junction.Stuck_open;
  let naive = Layout.place fm in
  Alcotest.(check bool) "naive placement invalid" false (Layout.respects naive d);
  let remapped = Layout.place ~row_assignment:[| 1; 0; 2; 3; 4; 5 |] fm in
  Alcotest.(check bool) "remapped placement valid" true (Layout.respects remapped d);
  Alcotest.(check bool) "remapped crossbar computes the function" true
    (Sim.agrees_with_reference ~defects:d remapped)

let test_sim_spare_rows () =
  let fm = Function_matrix.build fig7_mo in
  let layout = Layout.place ~physical_rows:8 ~row_assignment:[| 7; 6; 2; 3; 0; 5 |] fm in
  Alcotest.(check bool) "sparse placement computes the function" true
    (Sim.agrees_with_reference layout)

(* ------------------------------------------------------------------ *)
(* Multilevel                                                         *)
(* ------------------------------------------------------------------ *)

let test_multilevel_paper_example () =
  let mapped = Mcx_netlist.Tech_map.map_cover paper_cover in
  let ml = Multilevel.place mapped in
  Alcotest.(check int) "3 rows" 3 ml.Multilevel.rows;
  Alcotest.(check int) "19 cols" 19 ml.Multilevel.cols;
  Alcotest.(check bool) "multi-level crossbar computes f" true
    (Multilevel.agrees_with_reference ml paper_mo)

let test_multilevel_multioutput () =
  let mo = fig7_mo in
  let mapped = Mcx_netlist.Tech_map.map_mo mo in
  let ml = Multilevel.place mapped in
  Alcotest.(check bool) "computes both outputs" true
    (Multilevel.agrees_with_reference ml mo)

let test_multilevel_direct_output () =
  (* f = x1: no gate at all; the latch drives the output directly. *)
  let mo = Mo_cover.of_single (cover [ "-1-" ]) in
  let mapped = Mcx_netlist.Tech_map.map_mo mo in
  let ml = Multilevel.place mapped in
  Alcotest.(check bool) "literal output" true (Multilevel.agrees_with_reference ml mo)

let test_multilevel_defect_breaks () =
  let mapped = Mcx_netlist.Tech_map.map_cover paper_cover in
  let ml = Multilevel.place mapped in
  let d = Defect_map.create ~rows:ml.Multilevel.physical_rows ~cols:ml.Multilevel.physical_cols in
  (* Poison the connection column junction the top gate reads. *)
  let conn_col =
    match ml.Multilevel.conn_col_of_gate.(0) with Some c -> c | None -> Alcotest.fail "gate 0 inner"
  in
  Defect_map.set d 1 conn_col Junction.Stuck_open;
  Alcotest.(check bool) "stuck-open on connection breaks f" false
    (Multilevel.agrees_with_reference ~defects:d ml paper_mo)

let test_multilevel_row_assignment () =
  let mapped = Mcx_netlist.Tech_map.map_cover paper_cover in
  let ml = Multilevel.place ~physical_rows:5 ~row_assignment:[| 4; 2; 0 |] mapped in
  Alcotest.(check bool) "permuted multi-level computes f" true
    (Multilevel.agrees_with_reference ml paper_mo)

(* ------------------------------------------------------------------ *)
(* Latency & energy models                                            *)
(* ------------------------------------------------------------------ *)

let test_steps_models () =
  Alcotest.(check int) "two-level is 7 states" 7 Cost.two_level_steps;
  let mapped = Mcx_netlist.Tech_map.map_cover paper_cover in
  (* the fig5 network has 2 gates in 2 levels *)
  Alcotest.(check int) "3G+4" 10 (Cost.multi_level_steps mapped);
  Alcotest.(check int) "3*levels+4" 10 (Cost.multi_level_steps ~level_parallel:true mapped);
  let wide = Mcx_netlist.Tech_map.map_mo fig7_mo in
  Alcotest.(check bool) "parallel <= serial" true
    (Cost.multi_level_steps ~level_parallel:true wide <= Cost.multi_level_steps wide)

let test_two_level_writes_matches_sim () =
  let check mo include_il_row =
    let layout = Layout.of_cover ~include_il_row mo in
    let n = Mo_cover.n_inputs mo in
    let v = Array.init n (fun i -> i mod 2 = 0) in
    let _, writes = Sim.run_counting layout v in
    Alcotest.(check int) "closed form = instrumented sim"
      (Cost.two_level_writes ~include_il_row mo)
      writes
  in
  check paper_mo true;
  check paper_mo false;
  check fig7_mo false

let test_multi_level_writes_matches_sim () =
  let check mo =
    let mapped = Mcx_netlist.Tech_map.map_mo mo in
    let ml = Multilevel.place mapped in
    let n = Mo_cover.n_inputs mo in
    let v = Array.init n (fun i -> i mod 3 = 0) in
    let _, writes = Multilevel.run_counting ml v in
    Alcotest.(check int) "closed form = instrumented sim"
      (Cost.multi_level_writes mapped) writes
  in
  check paper_mo;
  check fig7_mo;
  check (Mo_cover.of_single (cover [ "-1-" ]))

let test_writes_independent_of_input () =
  (* The write count is input-independent: every programmed junction is
     written each computation regardless of the value. *)
  let layout = Layout.of_cover fig7_mo in
  let w v = snd (Sim.run_counting layout v) in
  Alcotest.(check int) "same writes"
    (w [| false; false; false |])
    (w [| true; true; true |])

(* ------------------------------------------------------------------ *)
(* Transient upsets                                                   *)
(* ------------------------------------------------------------------ *)

let test_upsets_zero_rate_is_run () =
  let layout = Layout.of_cover fig7_mo in
  let prng = Mcx_util.Prng.create 1 in
  for idx = 0 to 7 do
    let v = Array.init 3 (fun i -> (idx lsr i) land 1 = 1) in
    Alcotest.(check (array bool)) "rate 0 = plain run" (Sim.run layout v)
      (Sim.run_with_upsets ~prng ~upset_rate:0. layout v)
  done

let test_upsets_certain_rate_breaks () =
  (* rate 1.0 flips every write; the all-zero input would normally give
     all-false outputs, upsets make the computation diverge somewhere. *)
  let layout = Layout.of_cover fig7_mo in
  let prng = Mcx_util.Prng.create 2 in
  let wrong = ref 0 in
  for idx = 0 to 7 do
    let v = Array.init 3 (fun i -> (idx lsr i) land 1 = 1) in
    if Sim.run_with_upsets ~prng ~upset_rate:1.0 layout v <> Sim.run layout v then incr wrong
  done;
  Alcotest.(check bool) "full upsets corrupt some outputs" true (!wrong > 0)

let test_upsets_multilevel_zero_rate () =
  let mapped = Mcx_netlist.Tech_map.map_mo fig7_mo in
  let ml = Multilevel.place mapped in
  let prng = Mcx_util.Prng.create 3 in
  for idx = 0 to 7 do
    let v = Array.init 3 (fun i -> (idx lsr i) land 1 = 1) in
    Alcotest.(check (array bool)) "rate 0 = plain run" (Multilevel.run ml v)
      (Multilevel.run_with_upsets ~prng ~upset_rate:0. ml v)
  done

(* ------------------------------------------------------------------ *)
(* Analog                                                             *)
(* ------------------------------------------------------------------ *)

let test_analog_divider () =
  (* one junction at R_OFF: the line sits near V_dd; at R_ON, near GND *)
  Alcotest.(check bool) "single off senses high" true (Analog.sensed_conjunction [ true ]);
  Alcotest.(check bool) "single on senses low" false (Analog.sensed_conjunction [ false ]);
  Alcotest.(check bool) "one on among many off dominates" false
    (Analog.sensed_conjunction (false :: List.init 20 (fun _ -> true)));
  Alcotest.(check (float 1e-9)) "empty line floats at vdd" 1.0 (Analog.line_voltage [])

let test_analog_matches_functional_at_benchmark_widths () =
  (* all Table II crossbars are narrower than the electrical limit and the
     analog sense agrees with the Boolean conjunction there *)
  let limit = Analog.max_reliable_width () in
  Alcotest.(check bool) "limit covers exp5's 142 columns" true (limit >= 142);
  List.iter
    (fun width ->
      Alcotest.(check bool)
        (Printf.sprintf "width %d" width)
        true
        (Analog.matches_functional ~width ()))
    [ 1; 2; 16; 44; 142 ]

let test_analog_margin_monotone () =
  let m w = Analog.sense_margin ~width:w () in
  Alcotest.(check bool) "margin shrinks with width (beyond the knee)" true
    (m 320 < m 128 && m 128 < m 44);
  Alcotest.(check bool) "margin eventually negative" true (m 4000 < 0.);
  Alcotest.(check bool) "width 0 rejected" true
    (try
       ignore (m 0);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Render                                                             *)
(* ------------------------------------------------------------------ *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_render_two_level () =
  let layout = Layout.of_cover fig7_mo in
  let text = Render.two_level layout in
  Alcotest.(check bool) "has active switches" true (contains text "#");
  Alcotest.(check bool) "labels products" true (contains text "m1");
  Alcotest.(check bool) "labels outputs" true (contains text "O1");
  (* 6 physical rows + 3 header lines (widest label x1' etc.) *)
  Alcotest.(check int) "line count" (6 + 3)
    (List.length (List.filter (fun l -> l <> "") (String.split_on_char '\n' text)))

let test_render_defect_overlay () =
  let layout = Layout.of_cover fig7_mo in
  let d = Defect_map.create ~rows:6 ~cols:10 in
  Defect_map.set d 0 0 Junction.Stuck_open;
  (* (0,0) is a required switch for m1 -> capital O marks the violation *)
  Defect_map.set d 5 2 Junction.Stuck_closed;
  let text = Render.two_level ~defects:d layout in
  Alcotest.(check bool) "violated junction" true (contains text "O#");
  Alcotest.(check bool) "closed junction shown" true
    (contains text "x" || contains text "X")

let test_render_multilevel () =
  let mapped = Mcx_netlist.Tech_map.map_cover paper_cover in
  let ml = Multilevel.place mapped in
  let text = Render.multi_level ml in
  Alcotest.(check bool) "gate rows labelled" true (contains text "g0");
  Alcotest.(check bool) "latch row labelled" true (contains text "OL");
  (* column headers are rendered vertically: the first header line holds
     the first character of every column label, so the connection column
     contributes a 'c'. *)
  (match String.split_on_char '\n' text with
  | first :: _ -> Alcotest.(check bool) "connection column labelled" true (contains first "c")
  | [] -> Alcotest.fail "empty rendering")

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                  *)
(* ------------------------------------------------------------------ *)

let gen_cover ~arity ~max_products =
  QCheck2.Gen.(
    let gen_lit = oneofl [ Literal.Pos; Literal.Neg; Literal.Absent; Literal.Absent ] in
    let gen_cube = array_size (pure arity) gen_lit in
    let* n = int_range 1 max_products in
    let+ cubes = list_size (pure n) gen_cube in
    Cover.create ~arity (List.map Cube.of_literals cubes))

(* The exhaustive oracle: [Sim.run] on every input vector against the
   cover's own semantics, the reference for the symbolic
   [Sim.agrees_with_reference]. *)
let exhaustive_agrees ?defects layout =
  let cover = layout.Layout.fm.Function_matrix.cover in
  let n = Mo_cover.n_inputs cover in
  let rec from idx =
    idx = 1 lsl n
    || (let v = Array.init n (fun i -> (idx lsr i) land 1 = 1) in
        Sim.run ?defects layout v = Mo_cover.eval cover v && from (idx + 1))
  in
  from 0

let prop_sim_matches_cover =
  QCheck2.Test.make ~name:"two-level sim computes the cover" ~count:60
    (gen_cover ~arity:4 ~max_products:5)
    (fun f -> exhaustive_agrees (Layout.of_cover (Mo_cover.of_single f)))

let prop_sim_matches_cover_with_il =
  QCheck2.Test.make ~name:"two-level sim with IL row computes the cover" ~count:40
    (gen_cover ~arity:4 ~max_products:5)
    (fun f -> exhaustive_agrees (Layout.of_cover ~include_il_row:true (Mo_cover.of_single f)))

(* A placed design under defects: a multi-output cover of up to 10
   inputs, with or without the IL row, on a crossbar with up to two spare
   rows and columns under random injective assignments, and a random
   stuck-open/stuck-closed map; half the cases also get a stuck-closed
   junction at a used-row x used-column crossing. *)
let gen_mo_cover =
  QCheck2.Gen.(
    let* n_inputs = int_range 1 10 in
    let* n_outputs = int_range 1 3 in
    let gen_row =
      let gen_lit = oneofl [ Literal.Pos; Literal.Neg; Literal.Absent; Literal.Absent ] in
      let* lits = array_size (pure n_inputs) gen_lit in
      let* outputs = array_size (pure n_outputs) bool in
      let+ k = int_bound (n_outputs - 1) in
      let outputs = Array.mapi (fun i o -> o || i = k) outputs in
      { Mo_cover.cube = Cube.of_literals lits; outputs }
    in
    let+ rows = list_size (int_range 1 6) gen_row in
    Mo_cover.create ~n_inputs ~n_outputs rows)

let gen_defect_map ~rows ~cols =
  QCheck2.Gen.(
    let* open_rate = oneofl [ 0.; 0.02; 0.05; 0.1 ] in
    let* closed_rate = oneofl [ 0.; 0.; 0.01; 0.03 ] in
    let+ seed = int_bound 1_000_000 in
    Defect_map.random (Mcx_util.Prng.create seed) ~rows ~cols ~open_rate ~closed_rate)

let gen_defective_placement =
  QCheck2.Gen.(
    let* mo = gen_mo_cover in
    let* include_il_row = bool in
    let fm = Function_matrix.build ~include_il_row mo in
    let geometry = fm.Function_matrix.geometry in
    let* physical_rows = int_range (Geometry.rows geometry) (Geometry.rows geometry + 2) in
    let* physical_cols = int_range (Geometry.cols geometry) (Geometry.cols geometry + 2) in
    let* rows_shuffled = shuffle_a (Array.init physical_rows Fun.id) in
    let* cols_shuffled = shuffle_a (Array.init physical_cols Fun.id) in
    let layout =
      Layout.place
        ~row_assignment:(Array.sub rows_shuffled 0 (Geometry.rows geometry))
        ~col_assignment:(Array.sub cols_shuffled 0 (Geometry.cols geometry))
        ~physical_rows ~physical_cols fm
    in
    let* defects = gen_defect_map ~rows:physical_rows ~cols:physical_cols in
    let* closed_on_used = bool in
    let* r = int_bound (Geometry.rows geometry - 1) in
    let+ c = int_bound (Geometry.cols geometry - 1) in
    if closed_on_used then
      Defect_map.set defects layout.Layout.row_assignment.(r) layout.Layout.col_assignment.(c)
        Junction.Stuck_closed;
    (layout, defects))

let print_defective_placement (layout, defects) =
  Format.asprintf "%a@.rows %s@.cols %s@.%a" Mo_cover.pp layout.Layout.fm.Function_matrix.cover
    (String.concat " " (Array.to_list (Array.map string_of_int layout.Layout.row_assignment)))
    (String.concat " " (Array.to_list (Array.map string_of_int layout.Layout.col_assignment)))
    Defect_map.pp defects

(* The symbolic verdict equals the exhaustive one. At least a fifth of
   the cases must be false verdicts, so a check that always answers true
   cannot pass. *)
let test_symbolic_matches_exhaustive () =
  let cases = ref 0 and false_verdicts = ref 0 in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~name:"symbolic verdict = exhaustive verdict" ~count:300
       ~print:print_defective_placement gen_defective_placement (fun (layout, defects) ->
         let verdict = exhaustive_agrees ~defects layout in
         incr cases;
         if not verdict then incr false_verdicts;
         Bool.equal (Sim.agrees_with_reference ~defects layout) verdict));
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d verdicts false" !false_verdicts !cases)
    true
    (5 * !false_verdicts >= !cases)

(* The multi-level oracle: [Multilevel.run] on every input vector against
   the cover's semantics. *)
let exhaustive_multilevel_agrees ?defects ml mo =
  let n = Mo_cover.n_inputs mo in
  let rec from idx =
    idx = 1 lsl n
    || (let v = Array.init n (fun i -> (idx lsr i) land 1 = 1) in
        Multilevel.run ?defects ml v = Mo_cover.eval mo v && from (idx + 1))
  in
  from 0

(* A multi-level design of a cover of up to 10 inputs, its rows placed by a
   random injective assignment on up to two spare rows, under a random
   stuck-open/stuck-closed map. *)
let gen_defective_multilevel =
  QCheck2.Gen.(
    let* mo = gen_mo_cover in
    let mapped = Mcx_netlist.Tech_map.map_mo mo in
    let rows = (Multilevel.place mapped).Multilevel.rows in
    let* physical_rows = int_range rows (rows + 2) in
    let* shuffled = shuffle_a (Array.init physical_rows Fun.id) in
    let ml =
      Multilevel.place ~row_assignment:(Array.sub shuffled 0 rows) ~physical_rows mapped
    in
    let+ defects = gen_defect_map ~rows:physical_rows ~cols:ml.Multilevel.physical_cols in
    (mo, ml, defects))

let print_defective_multilevel (mo, ml, defects) =
  Format.asprintf "%a@.rows %s@.%a" Mo_cover.pp mo
    (String.concat " " (Array.to_list (Array.map string_of_int ml.Multilevel.row_assignment)))
    Defect_map.pp defects

let test_multilevel_symbolic_matches_exhaustive () =
  let cases = ref 0 and false_verdicts = ref 0 in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~name:"multi-level symbolic verdict = exhaustive verdict" ~count:200
       ~print:print_defective_multilevel gen_defective_multilevel (fun (mo, ml, defects) ->
         let verdict = exhaustive_multilevel_agrees ~defects ml mo in
         incr cases;
         if not verdict then incr false_verdicts;
         Bool.equal (Multilevel.agrees_with_reference ~defects ml mo) verdict));
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d verdicts false" !false_verdicts !cases)
    true
    (5 * !false_verdicts >= !cases)

(* Widths no truth table reaches. A stuck-closed junction in the row of a
   gate that drives a non-constant output pins that output. *)
let test_multilevel_wide () =
  let placed name =
    let mo = Mcx_benchmarks.Suite.cover (Mcx_benchmarks.Suite.find name) in
    (mo, Multilevel.place (Mcx_netlist.Tech_map.map_mo mo))
  in
  List.iter
    (fun name ->
      let mo, ml = placed name in
      Alcotest.(check bool) (name ^ " pristine") true (Multilevel.agrees_with_reference ml mo))
    [ "t481"; "b12"; "cordic" ];
  let mo, ml = placed "cordic" in
  let net = ml.Multilevel.mapped.Mcx_netlist.Tech_map.network in
  let driver =
    List.find_map
      (function
        | Mcx_netlist.Signal.Gate { id; _ } -> Some id
        | Mcx_netlist.Signal.Const _ | Mcx_netlist.Signal.Input _
        | Mcx_netlist.Signal.Input_neg _ ->
          None)
      (Mcx_netlist.Network.outputs net)
  in
  let d = Defect_map.create ~rows:ml.Multilevel.physical_rows ~cols:ml.Multilevel.physical_cols in
  Defect_map.set d ml.Multilevel.row_assignment.(Option.get driver) 0 Junction.Stuck_closed;
  Alcotest.(check bool) "cordic, output gate row stuck closed" false
    (Multilevel.agrees_with_reference ~defects:d ml mo)

let prop_multilevel_matches_cover =
  QCheck2.Test.make ~name:"multi-level sim computes the cover" ~count:60
    (gen_cover ~arity:4 ~max_products:5)
    (fun f ->
      let mo = Mo_cover.of_single f in
      let ml = Multilevel.place (Mcx_netlist.Tech_map.map_mo mo) in
      Multilevel.agrees_with_reference ml mo)

let prop_multilevel_multioutput =
  QCheck2.Test.make ~name:"multi-level sim, two outputs" ~count:40
    QCheck2.Gen.(pair (gen_cover ~arity:4 ~max_products:4) (gen_cover ~arity:4 ~max_products:4))
    (fun (f, g) ->
      let mo = Mo_cover.of_covers [ f; g ] in
      let ml = Multilevel.place (Mcx_netlist.Tech_map.map_mo mo) in
      Multilevel.agrees_with_reference ml mo)

let prop_valid_respect_implies_correct =
  QCheck2.Test.make ~name:"respects + stuck-open defects => correct outputs" ~count:60
    QCheck2.Gen.(pair (gen_cover ~arity:4 ~max_products:4) (int_bound 10000))
    (fun (f, seed) ->
      let mo = Mo_cover.of_single f in
      let layout = Layout.of_cover mo in
      let prng = Mcx_util.Prng.create seed in
      let d =
        Defect_map.random prng ~rows:layout.Layout.physical_rows
          ~cols:layout.Layout.physical_cols ~open_rate:0.15 ~closed_rate:0.
      in
      (* Only claim correctness when the identity placement is valid. *)
      (not (Layout.respects layout d)) || Sim.agrees_with_reference ~defects:d layout)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_sim_matches_cover;
      prop_sim_matches_cover_with_il;
      prop_multilevel_matches_cover;
      prop_multilevel_multioutput;
      prop_valid_respect_implies_correct;
    ]

let () =
  Alcotest.run "mcx_crossbar"
    [
      ("junction", [ Alcotest.test_case "store semantics" `Quick test_junction_store ]);
      ( "defect_map",
        [
          Alcotest.test_case "random rates" `Quick test_defect_map_random_rates;
          Alcotest.test_case "usable lines" `Quick test_defect_map_usable_lines;
          Alcotest.test_case "bad rates" `Quick test_defect_map_bad_rates;
        ] );
      ( "geometry",
        [
          Alcotest.test_case "fig3 dims" `Quick test_geometry_fig3_dims;
          Alcotest.test_case "table model" `Quick test_geometry_table_model;
          Alcotest.test_case "role roundtrip" `Quick test_geometry_role_roundtrip;
          Alcotest.test_case "literal columns" `Quick test_geometry_literal_columns;
        ] );
      ( "cost",
        [
          Alcotest.test_case "fig3: 126 area, 31 switches" `Quick test_fig3_cost;
          Alcotest.test_case "table II closed forms" `Quick test_table2_closed_form_areas;
          Alcotest.test_case "fig5 multi-level" `Quick test_fig5_multilevel_cost;
          Alcotest.test_case "FM structure (fig8 dims)" `Quick test_fm_structure;
          Alcotest.test_case "dual choice" `Quick test_dual_choice;
        ] );
      ( "layout",
        [
          Alcotest.test_case "identity" `Quick test_layout_identity;
          Alcotest.test_case "permutation" `Quick test_layout_permutation;
          Alcotest.test_case "validation" `Quick test_layout_validation;
          Alcotest.test_case "respects" `Quick test_layout_respects;
        ] );
      ( "sim",
        [
          Alcotest.test_case "paper example" `Quick test_sim_paper_example;
          Alcotest.test_case "fig7 function" `Quick test_sim_fig7;
          Alcotest.test_case "permuted rows" `Quick test_sim_permuted_rows;
          Alcotest.test_case "harmless open defect" `Quick test_sim_harmless_open_defect;
          Alcotest.test_case "harmful open defect" `Quick test_sim_harmful_open_defect;
          Alcotest.test_case "closed defect poisons" `Quick test_sim_closed_defect_poisons;
          Alcotest.test_case "remapping fixes defect" `Quick test_sim_open_defect_fixed_by_remapping;
          Alcotest.test_case "spare rows" `Quick test_sim_spare_rows;
        ] );
      ( "cost_models",
        [
          Alcotest.test_case "step counts" `Quick test_steps_models;
          Alcotest.test_case "two-level writes = sim" `Quick test_two_level_writes_matches_sim;
          Alcotest.test_case "multi-level writes = sim" `Quick test_multi_level_writes_matches_sim;
          Alcotest.test_case "writes input-independent" `Quick test_writes_independent_of_input;
        ] );
      ( "multilevel",
        [
          Alcotest.test_case "paper example 3x19" `Quick test_multilevel_paper_example;
          Alcotest.test_case "multi-output" `Quick test_multilevel_multioutput;
          Alcotest.test_case "direct literal output" `Quick test_multilevel_direct_output;
          Alcotest.test_case "connection defect breaks" `Quick test_multilevel_defect_breaks;
          Alcotest.test_case "row assignment" `Quick test_multilevel_row_assignment;
          Alcotest.test_case "wide designs" `Quick test_multilevel_wide;
        ] );
      ( "analog",
        [
          Alcotest.test_case "divider" `Quick test_analog_divider;
          Alcotest.test_case "matches functional" `Quick test_analog_matches_functional_at_benchmark_widths;
          Alcotest.test_case "margin monotone" `Quick test_analog_margin_monotone;
        ] );
      ( "transient",
        [
          Alcotest.test_case "zero rate" `Quick test_upsets_zero_rate_is_run;
          Alcotest.test_case "certain rate" `Quick test_upsets_certain_rate_breaks;
          Alcotest.test_case "multi-level zero rate" `Quick test_upsets_multilevel_zero_rate;
        ] );
      ( "render",
        [
          Alcotest.test_case "two-level" `Quick test_render_two_level;
          Alcotest.test_case "defect overlay" `Quick test_render_defect_overlay;
          Alcotest.test_case "multi-level" `Quick test_render_multilevel;
        ] );
      ( "properties",
        qcheck_cases
        @ [
            Alcotest.test_case "symbolic verdict = exhaustive verdict" `Quick
              test_symbolic_matches_exhaustive;
            Alcotest.test_case "multi-level symbolic verdict = exhaustive verdict" `Quick
              test_multilevel_symbolic_matches_exhaustive;
          ] );
    ]
