open Mcx_experiments

(* Small sample counts keep the suite fast; [memx experiment] runs the
   paper-scale versions. *)

(* ------------------------------------------------------------------ *)
(* Fig6                                                               *)
(* ------------------------------------------------------------------ *)

let test_fig6_panel_shape () =
  let panel = Fig6.run_panel ~samples:50 ~seed:3 ~n_inputs:8 () in
  Alcotest.(check int) "sample count" 50 (List.length panel.Fig6.samples);
  Alcotest.(check bool) "rate in range" true
    (panel.Fig6.success_rate >= 0. && panel.Fig6.success_rate <= 100.);
  let products = List.map (fun s -> s.Fig6.n_products) panel.Fig6.samples in
  Alcotest.(check (list int)) "sorted by product count" (List.sort compare products) products

let test_fig6_deterministic () =
  let a = Fig6.run_panel ~samples:30 ~seed:5 ~n_inputs:9 () in
  let b = Fig6.run_panel ~samples:30 ~seed:5 ~n_inputs:9 () in
  Alcotest.(check (float 0.001)) "same rate" a.Fig6.success_rate b.Fig6.success_rate

let test_fig6_trend () =
  (* The headline of Fig. 6: multi-level wins less often as inputs grow. *)
  let small = Fig6.run_panel ~samples:150 ~seed:1 ~n_inputs:8 () in
  let large = Fig6.run_panel ~samples:150 ~seed:1 ~n_inputs:15 () in
  Alcotest.(check bool)
    (Printf.sprintf "success(8)=%.0f > success(15)=%.0f" small.Fig6.success_rate
       large.Fig6.success_rate)
    true
    (small.Fig6.success_rate > large.Fig6.success_rate)

let test_fig6_csv () =
  let panel = Fig6.run_panel ~samples:5 ~seed:2 ~n_inputs:8 () in
  let csv = Fig6.series_csv panel in
  Alcotest.(check int) "header + 5 rows" 7 (List.length (String.split_on_char '\n' csv))

let test_fig6_areas_consistent () =
  let panel = Fig6.run_panel ~samples:40 ~seed:9 ~n_inputs:8 () in
  List.iter
    (fun s ->
      (* two-level area closed form for a single-output function *)
      Alcotest.(check int) "2lvl closed form"
        ((s.Fig6.n_products + 1) * 18)
        s.Fig6.two_level_area;
      Alcotest.(check bool) "multi-level positive" true (s.Fig6.multi_level_area > 0))
    panel.Fig6.samples

(* ------------------------------------------------------------------ *)
(* Table1                                                             *)
(* ------------------------------------------------------------------ *)

let table1_rows = lazy (Table1.run ())

let test_table1_all_benchmarks () =
  let rows = Lazy.force table1_rows in
  Alcotest.(check int) "9 rows" 9 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) (r.Table1.name ^ " areas positive") true
        (r.Table1.orig_two_level > 0 && r.Table1.orig_multi_level > 0
        && r.Table1.neg_two_level > 0 && r.Table1.neg_multi_level > 0))
    rows

let test_table1_synthetic_two_level_exact () =
  (* Synthetic benchmarks have pinned (I, O, P), so their two-level areas
     must equal the paper's exactly. *)
  let rows = Lazy.force table1_rows in
  List.iter
    (fun name ->
      let r = List.find (fun r -> r.Table1.name = name) rows in
      match r.Table1.paper with
      | Some (paper_two, _, _, _) ->
        Alcotest.(check int) (name ^ " two-level area") paper_two r.Table1.orig_two_level
      | None -> Alcotest.fail "missing paper data")
    [ "con1"; "misex1"; "bw"; "b12" ]

let test_table1_multilevel_direction () =
  (* The paper's qualitative result: multi-level wins on (near-)single-
     output t481 and cordic, loses heavily on multi-output bw/misex1. *)
  let rows = Lazy.force table1_rows in
  let find name = List.find (fun r -> r.Table1.name = name) rows in
  let t481 = find "t481" in
  Alcotest.(check bool) "t481: multi < two" true
    (t481.Table1.orig_multi_level < t481.Table1.orig_two_level);
  let cordic = find "cordic" in
  Alcotest.(check bool) "cordic: multi < two" true
    (cordic.Table1.orig_multi_level < cordic.Table1.orig_two_level);
  let bw = find "bw" in
  Alcotest.(check bool) "bw: multi > two" true
    (bw.Table1.orig_multi_level > bw.Table1.orig_two_level);
  let misex1 = find "misex1" in
  Alcotest.(check bool) "misex1: multi > two" true
    (misex1.Table1.orig_multi_level > misex1.Table1.orig_two_level)

(* ------------------------------------------------------------------ *)
(* Table2                                                             *)
(* ------------------------------------------------------------------ *)

let small_table2 =
  lazy (Table2.run ~samples:30 ~seed:11 ~benchmarks:[ "rd53"; "misex1"; "rd73" ] ())

let test_table2_fields () =
  let rows = Lazy.force small_table2 in
  Alcotest.(check int) "3 rows" 3 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "psucc ranges" true
        (r.Table2.hba_psucc >= 0. && r.Table2.hba_psucc <= 100. && r.Table2.ea_psucc >= 0.
       && r.Table2.ea_psucc <= 100.);
      Alcotest.(check bool) "assignments all valid" true
        (r.Table2.hba_all_valid && r.Table2.ea_all_valid);
      Alcotest.(check bool) "times nonnegative" true
        (r.Table2.hba_mean_seconds >= 0. && r.Table2.ea_mean_seconds >= 0.))
    rows

let test_table2_hba_bounded_by_ea () =
  (* Per-sample, hybrid success implies exact success, so the aggregate
     rates must be ordered. *)
  let rows = Lazy.force small_table2 in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: HBA %.0f <= EA %.0f" r.Table2.name r.Table2.hba_psucc
           r.Table2.ea_psucc)
        true
        (r.Table2.hba_psucc <= r.Table2.ea_psucc))
    rows

let test_table2_area_model () =
  let rows = Lazy.force small_table2 in
  List.iter
    (fun r ->
      Alcotest.(check int) (r.Table2.name ^ " area closed form")
        ((r.Table2.products + r.Table2.outputs)
        * ((2 * r.Table2.inputs) + (2 * r.Table2.outputs)))
        r.Table2.area)
    rows

let test_table2_dual_sqrt8 () =
  (* sqrt8's complement has fewer products (paper prints the dual in bold). *)
  let rows = Table2.run ~samples:2 ~seed:1 ~benchmarks:[ "sqrt8" ] () in
  match rows with
  | [ r ] -> Alcotest.(check bool) "dual chosen" true r.Table2.dual_used
  | _ -> Alcotest.fail "one row expected"

(* ------------------------------------------------------------------ *)
(* Yield                                                              *)
(* ------------------------------------------------------------------ *)

let test_yield_sweep () =
  let sweep =
    Yield.run ~samples:40 ~spare_levels:[ 0; 2; 4 ] ~open_rate:0.05 ~closed_rate:0.01
      ~seed:3 ~benchmark:"rd53" ()
  in
  Alcotest.(check int) "3 points" 3 (List.length sweep.Yield.points);
  List.iter
    (fun p -> Alcotest.(check bool) "placements verified" true p.Yield.all_valid)
    sweep.Yield.points;
  let first = List.hd sweep.Yield.points in
  let last = List.nth sweep.Yield.points 2 in
  Alcotest.(check bool)
    (Printf.sprintf "redundancy helps: %.0f%% (r=0) <= %.0f%% (r=4)" first.Yield.psucc
       last.Yield.psucc)
    true
    (first.Yield.psucc <= last.Yield.psucc);
  Alcotest.(check bool) "overhead grows" true
    (last.Yield.area_overhead > first.Yield.area_overhead)

let test_yield_parallel_deterministic () =
  (* The determinism contract of the Monte Carlo engine: the rendered
     sweep (tables and CSV alike go through Texttable) must be identical
     whether the trials run on one domain or four. *)
  let run pool =
    let sweep =
      Yield.run ~pool ~samples:30 ~spare_levels:[ 0; 1; 2 ] ~open_rate:0.05
        ~closed_rate:0.01 ~seed:11 ~benchmark:"rd53" ()
    in
    Mcx_util.Texttable.to_csv (Yield.to_table sweep)
  in
  let seq_pool = Mcx_util.Pool.create ~jobs:1 () in
  let par_pool = Mcx_util.Pool.create ~jobs:4 () in
  Fun.protect
    ~finally:(fun () ->
      Mcx_util.Pool.shutdown seq_pool;
      Mcx_util.Pool.shutdown par_pool)
    (fun () ->
      let sequential = run seq_pool and parallel = run par_pool in
      Alcotest.(check string) "MCX_JOBS=4 byte-identical to sequential"
        sequential parallel;
      Alcotest.(check string) "re-running is stable" sequential (run par_pool))

let test_yield_closed_defects_need_redundancy () =
  (* With closed defects and zero spares, yield should be clearly below
     100%; the paper says tolerance is impossible whenever one lands in
     the used area. *)
  let sweep =
    Yield.run ~samples:60 ~spare_levels:[ 0 ] ~open_rate:0.0 ~closed_rate:0.02 ~seed:5
      ~benchmark:"rd53" ()
  in
  let p = List.hd sweep.Yield.points in
  Alcotest.(check bool)
    (Printf.sprintf "Psucc %.0f%% < 50%%" p.Yield.psucc)
    true (p.Yield.psucc < 50.)

(* ------------------------------------------------------------------ *)
(* Mldefect                                                           *)
(* ------------------------------------------------------------------ *)

let test_mldefect_end_to_end () =
  let result =
    Mldefect.run ~samples:40 ~defect_rates:[ 0.02; 0.10 ] ~seed:7 ~benchmark:"misex1" ()
  in
  Alcotest.(check int) "2 points" 2 (List.length result.Mldefect.points);
  Alcotest.(check bool) "gates positive" true (result.Mldefect.gates > 0);
  List.iter
    (fun p ->
      (* misex1 has 8 inputs, so every successful mapping was re-simulated
         exhaustively against the reference cover. *)
      Alcotest.(check bool) "all simulations correct" true p.Mldefect.all_simulations_correct)
    result.Mldefect.points;
  let low = List.hd result.Mldefect.points in
  let high = List.nth result.Mldefect.points 1 in
  Alcotest.(check bool) "more defects, fewer successes" true
    (high.Mldefect.psucc <= low.Mldefect.psucc)

(* ------------------------------------------------------------------ *)
(* Ratesweep                                                          *)
(* ------------------------------------------------------------------ *)

let test_ratesweep_shape () =
  let sweep =
    Ratesweep.run ~samples:30 ~defect_rates:[ 0.02; 0.15 ] ~seed:3 ~benchmark:"rd53" ()
  in
  Alcotest.(check int) "2 points" 2 (List.length sweep.Ratesweep.points);
  List.iter
    (fun p ->
      Alcotest.(check bool) "hba <= ea" true
        (p.Ratesweep.hba_psucc <= p.Ratesweep.ea_psucc))
    sweep.Ratesweep.points;
  let low = List.hd sweep.Ratesweep.points in
  let high = List.nth sweep.Ratesweep.points 1 in
  Alcotest.(check bool) "EA degrades with rate" true
    (high.Ratesweep.ea_psucc <= low.Ratesweep.ea_psucc)

(* ------------------------------------------------------------------ *)
(* Ablation                                                           *)
(* ------------------------------------------------------------------ *)

let test_ablation_factoring () =
  let rows = Ablation.factoring ~samples:25 ~input_sizes:[ 8 ] ~seed:5 () in
  match rows with
  | [ r ] ->
    (* factoring can only help: flat is an upper bound on area *)
    Alcotest.(check bool) "quick <= flat (median area)" true
      (r.Ablation.quick_median_area <= r.Ablation.flat_median_area);
    Alcotest.(check bool) "win rates ordered" true
      (r.Ablation.quick_win_rate >= r.Ablation.flat_win_rate)
  | _ -> Alcotest.fail "one row expected"

let test_ablation_ordering () =
  let rows = Ablation.ordering ~samples:40 ~benchmarks:[ "rd53"; "rd73" ] ~seed:5 () in
  Alcotest.(check int) "2 rows" 2 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "both <= exact" true
        (r.Ablation.top_down_psucc <= r.Ablation.exact_psucc
        && r.Ablation.hardest_first_psucc <= r.Ablation.exact_psucc))
    rows

(* ------------------------------------------------------------------ *)
(* Tradeoff                                                           *)
(* ------------------------------------------------------------------ *)

let test_ablation_fanin () =
  let rows = Ablation.fanin ~fanin_limits:[ 2; 0 ] ~benchmarks:[ "rd53" ] () in
  match rows with
  | [ tight; unbounded ] ->
    Alcotest.(check bool) "fan-in 2 needs more gates" true
      (tight.Ablation.gates >= unbounded.Ablation.gates);
    Alcotest.(check bool) "and more steps" true
      (tight.Ablation.steps >= unbounded.Ablation.steps)
  | _ -> Alcotest.fail "two rows expected"

let test_tradeoff () =
  let rows = Tradeoff.run ~benchmarks:[ "rd53"; "t481" ] () in
  List.iter
    (fun r ->
      Alcotest.(check int) "two-level steps constant" 7 r.Tradeoff.two_steps;
      Alcotest.(check bool) "multi-level serializes" true
        (r.Tradeoff.multi_steps_serial > r.Tradeoff.two_steps);
      Alcotest.(check bool) "level-parallel bound" true
        (r.Tradeoff.multi_steps_parallel <= r.Tradeoff.multi_steps_serial);
      Alcotest.(check bool) "writes positive" true
        (r.Tradeoff.two_writes > 0 && r.Tradeoff.multi_writes > 0))
    rows;
  let t481 = List.nth rows 1 in
  Alcotest.(check bool) "t481 multi-level writes smaller too" true
    (t481.Tradeoff.multi_writes < t481.Tradeoff.two_writes)

(* ------------------------------------------------------------------ *)
(* Aging                                                              *)
(* ------------------------------------------------------------------ *)

let test_aging () =
  let r = Aging.run ~samples:10 ~max_faults:150 ~seed:2 ~benchmark:"rd53" () in
  Alcotest.(check bool) "every repair re-verified" true r.Aging.repairs_verified;
  Alcotest.(check bool) "dies absorb several faults" true (r.Aging.mean_faults_survived > 3.);
  Alcotest.(check bool) "local repair touches fewer rows than remap" true
    (r.Aging.mean_rows_touched_per_repair <= r.Aging.remap_rows_baseline +. 0.001)

let test_aging_parallel_deterministic () =
  (* Aging is the experiment whose numbers depend on which assignment the
     exact mapper returns (the full-remap fallback and the remap
     baseline), so it must not depend on which domain ran a die. *)
  let run pool =
    let r = Aging.run ~pool ~samples:12 ~max_faults:150 ~seed:2 ~benchmark:"rd53" () in
    Printf.sprintf "%d %h %h %h %b" r.Aging.samples r.Aging.mean_faults_survived
      r.Aging.mean_rows_touched_per_repair r.Aging.remap_rows_baseline
      r.Aging.repairs_verified
  in
  let seq_pool = Mcx_util.Pool.create ~jobs:1 () in
  let par_pool = Mcx_util.Pool.create ~jobs:4 () in
  Fun.protect
    ~finally:(fun () ->
      Mcx_util.Pool.shutdown seq_pool;
      Mcx_util.Pool.shutdown par_pool)
    (fun () ->
      Alcotest.(check string) "MCX_JOBS=4 identical to sequential" (run seq_pool)
        (run par_pool))

let test_mldefect_spares_help () =
  let run spare_rows =
    Mldefect.run ~samples:40 ~defect_rates:[ 0.10 ] ~spare_rows ~seed:7 ~benchmark:"misex1" ()
  in
  let base = run 0 and spared = run 4 in
  let p r = (List.hd r.Mldefect.points).Mldefect.psucc in
  Alcotest.(check bool)
    (Printf.sprintf "spares help: %.0f%% -> %.0f%%" (p base) (p spared))
    true
    (p spared >= p base);
  Alcotest.(check bool) "simulations still correct" true
    (List.for_all (fun pt -> pt.Mldefect.all_simulations_correct) spared.Mldefect.points)

let test_transient () =
  let r =
    Transient.run ~evaluations:100 ~upset_rates:[ 1e-4; 3e-3 ] ~seed:4 ~benchmark:"rd53" ()
  in
  Alcotest.(check int) "2 points" 2 (List.length r.Transient.points);
  let low = List.hd r.Transient.points and high = List.nth r.Transient.points 1 in
  Alcotest.(check bool) "error grows with upset rate" true
    (high.Transient.two_level_error_rate >= low.Transient.two_level_error_rate
    && high.Transient.multi_level_error_rate >= low.Transient.multi_level_error_rate);
  Alcotest.(check bool) "rates in range" true
    (List.for_all
       (fun p ->
         p.Transient.two_level_error_rate >= 0.
         && p.Transient.two_level_error_rate <= 100.
         && p.Transient.multi_level_error_rate >= 0.
         && p.Transient.multi_level_error_rate <= 100.)
       r.Transient.points)

(* ------------------------------------------------------------------ *)
(* Registry                                                           *)
(* ------------------------------------------------------------------ *)

let test_registry_names_unique () =
  let names = Registry.names in
  Alcotest.(check int) "fourteen experiments" 14 (List.length names);
  Alcotest.(check int) "no duplicates" (List.length names)
    (List.length (List.sort_uniq String.compare names))

(* Every entry's text and CSVs are byte-identical at any pool size.
   table2 is left out: its time columns are measurements, and
   table2.golden pins its verdicts. *)
let test_registry_jobs_invariant () =
  let run jobs =
    let pool = Mcx_util.Pool.create ~jobs () in
    Fun.protect
      ~finally:(fun () -> Mcx_util.Pool.shutdown pool)
      (fun () ->
        List.filter_map
          (fun name ->
            if String.equal name "table2" then None
            else Some (name, Registry.run ~pool ~samples:4 ~seed:2018 name))
          Registry.names)
  in
  List.iter2
    (fun (name, (a : Registry.output)) (_, (b : Registry.output)) ->
      Alcotest.(check string) (name ^ " text") a.text b.text;
      Alcotest.(check (list (pair string string))) (name ^ " csvs") a.csvs b.csvs)
    (run 1) (run 4)

let () =
  Alcotest.run "mcx_experiments"
    [
      ( "fig6",
        [
          Alcotest.test_case "panel shape" `Quick test_fig6_panel_shape;
          Alcotest.test_case "deterministic" `Quick test_fig6_deterministic;
          Alcotest.test_case "input-size trend" `Quick test_fig6_trend;
          Alcotest.test_case "csv" `Quick test_fig6_csv;
          Alcotest.test_case "areas consistent" `Quick test_fig6_areas_consistent;
        ] );
      ( "table1",
        [
          Alcotest.test_case "all benchmarks" `Quick test_table1_all_benchmarks;
          Alcotest.test_case "synthetic two-level exact" `Quick test_table1_synthetic_two_level_exact;
          Alcotest.test_case "multi-level direction" `Quick test_table1_multilevel_direction;
        ] );
      ( "table2",
        [
          Alcotest.test_case "fields" `Quick test_table2_fields;
          Alcotest.test_case "HBA <= EA" `Quick test_table2_hba_bounded_by_ea;
          Alcotest.test_case "area model" `Quick test_table2_area_model;
          Alcotest.test_case "sqrt8 dual" `Quick test_table2_dual_sqrt8;
        ] );
      ( "yield",
        [
          Alcotest.test_case "sweep" `Quick test_yield_sweep;
          Alcotest.test_case "parallel deterministic" `Quick
            test_yield_parallel_deterministic;
          Alcotest.test_case "closed defects need redundancy" `Quick
            test_yield_closed_defects_need_redundancy;
        ] );
      ( "mldefect",
        [ Alcotest.test_case "end to end" `Quick test_mldefect_end_to_end ] );
      ( "ratesweep",
        [ Alcotest.test_case "shape" `Quick test_ratesweep_shape ] );
      ( "ablation",
        [
          Alcotest.test_case "factoring" `Quick test_ablation_factoring;
          Alcotest.test_case "ordering" `Quick test_ablation_ordering;
          Alcotest.test_case "fan-in limit" `Quick test_ablation_fanin;
        ] );
      ("tradeoff", [ Alcotest.test_case "latency & energy" `Quick test_tradeoff ]);
      ( "aging",
        [
          Alcotest.test_case "incremental repair" `Quick test_aging;
          Alcotest.test_case "parallel deterministic" `Quick test_aging_parallel_deterministic;
        ] );
      ("transient", [ Alcotest.test_case "upset sweep" `Quick test_transient ]);
      ( "mldefect_spares",
        [ Alcotest.test_case "redundancy helps multi-level" `Quick test_mldefect_spares_help ] );
      ( "registry",
        [
          Alcotest.test_case "names unique" `Quick test_registry_names_unique;
          Alcotest.test_case "jobs 1 = jobs 4" `Quick test_registry_jobs_invariant;
        ] );
    ]
