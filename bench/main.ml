(* Regenerates every table and figure of the paper's evaluation, plus the
   future-work extension studies. Per-call HBA/EA times are table2's time
   columns; bench/kernels.exe times the packed kernels.

   Usage:
     dune exec bench/main.exe                 # everything, paper-scale
     dune exec bench/main.exe -- fig6 table2  # a subset
   Environment:
     MCX_SAMPLES  override the Monte Carlo sample count (default: the
                  paper's 200 for fig6/table2, 100 for the extensions).
     MCX_JOBS     domain count for the Monte Carlo trial pool (default:
                  the machine's recommended domain count). Every trial's
                  PRNG stream is derived from (seed, experiment, trial
                  index), so the experiment output on stdout and in the
                  CSVs is byte-identical at any job count; only the
                  wall-clock report on stderr changes.
     MCX_CHECKPOINT  journal completed trials to <dir>/journal.jsonl;
                  a killed run re-launched with the same settings
                  replays them and produces identical stdout (see
                  EXPERIMENTS.md "Checkpointing & fault tolerance").
     MCX_TRIAL_RETRIES / MCX_FAULT_RATE  trial-failure retry budget and
                  deterministic fault injection; permanent failures
                  degrade to partial results, a failed-trial manifest
                  and exit status 4. *)

(* MCX_SAMPLES via the Config registry: a malformed value is a startup
   error (exit 2, reported in main), never a silent paper-scale run. *)
let samples_default fallback =
  match Mcx.Util.Config.samples () with Some n -> n | None -> fallback

let seed = 2018 (* DATE 2018 *)

let pool = lazy (Mcx.Util.Pool.default ())
let pool () = Lazy.force pool

(* Wall-clock + per-trial accounting, reported on stderr so stdout stays
   bit-comparable across MCX_JOBS settings.  The driver totals live in
   plain refs; per-phase aggregation across pool domains is Telemetry's
   job now (merging Timing.Counter values across domains is deprecated). *)
let wall_seconds = ref 0.
let wall_events = ref 0

(* (name, wall seconds, trials) per timed experiment, oldest first —
   dumped to BENCH_main.json at exit so CI can archive wall times. *)
let wall_records : (string * float * int) list ref = ref []

let timed name ?trials run =
  let (), dt =
    Mcx.Util.Timing.time (fun () -> Mcx.Util.Telemetry.span ("bench." ^ name) run)
  in
  wall_seconds := !wall_seconds +. dt;
  incr wall_events;
  let trials = match trials with Some n when n > 0 -> n | _ -> 0 in
  wall_records := (name, dt, trials) :: !wall_records;
  if trials > 0 then begin
    Mcx.Util.Telemetry.count ~n:trials "bench.trials";
    Printf.eprintf "[mcx] %-9s wall %7.2fs  %8d trials  %10.1f us/trial\n%!" name dt
      trials
      (1e6 *. dt /. float_of_int trials)
  end
  else Printf.eprintf "[mcx] %-9s wall %7.2fs\n%!" name dt

(* The mcx-bench/1 wall-time dump (schema in EXPERIMENTS.md): one entry
   per timed experiment, measurements only — never byte-stable, so it
   lives next to the CSVs, not in stdout. *)
let write_bench_json path =
  let module J = Mcx.Util.Json_out in
  let experiment (name, dt, trials) =
    J.Obj
      ([ ("name", J.Str name); ("wall_s", J.Float dt) ]
      @
      if trials = 0 then []
      else
        [
          ("trials", J.Int trials);
          ("us_per_trial", J.Float (1e6 *. dt /. float_of_int trials));
        ])
  in
  J.write_file path
    (J.Obj
       [
         ("schema", J.Str "mcx-bench/1");
         (* Wall times are measurements, so the dump can afford the full
            config snapshot — it records the knob state that produced
            this trajectory point. *)
         ("config", Mcx.Util.Config.snapshot ());
         ("seed", J.Int seed);
         ("jobs", J.Int (Mcx.Util.Pool.jobs (pool ())));
         ("experiments", J.List (List.map experiment (List.rev !wall_records)));
         ("total_wall_s", J.Float !wall_seconds);
       ])

let heading title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==============================================================\n%!"

(* ------------------------------------------------------------------ *)
(* FIG3 / FIG5: the running example                                    *)
(* ------------------------------------------------------------------ *)

let paper_example_cover =
  Mcx.Logic.Cover.of_strings
    [ "1-------"; "-1------"; "--1-----"; "---1----"; "----1111" ]

let fig3 () =
  heading "FIG 3 - two-level mapping of f = x1+x2+x3+x4+x5x6x7x8";
  let mo = Mcx.Logic.Mo_cover.of_single paper_example_cover in
  let report = Mcx.Crossbar.Cost.two_level ~include_il_row:true mo in
  Printf.printf "crossbar: %d x %d   (paper: 7 x 18)\n" report.Mcx.Crossbar.Cost.rows
    report.Mcx.Crossbar.Cost.cols;
  Printf.printf "area cost: %d        (paper: 126)\n" report.Mcx.Crossbar.Cost.area;
  Printf.printf "switches:  %d         (paper: 31)\n" report.Mcx.Crossbar.Cost.switches;
  Printf.printf "IR: %.1f%%            (paper: ~25%%)\n" report.Mcx.Crossbar.Cost.inclusion_ratio;
  let layout = Mcx.Crossbar.Layout.of_cover ~include_il_row:true mo in
  Printf.printf "exhaustive simulation against the SOP: %s\n"
    (if Mcx.verify layout then "MATCH (256/256 inputs)" else "MISMATCH");
  Printf.printf "\n%s" (Mcx.Crossbar.Render.two_level layout)

let fig5 () =
  heading "FIG 5 - multi-level mapping of the same function";
  let mapped = Mcx.Netlist.Tech_map.map_cover paper_example_cover in
  let report = Mcx.Crossbar.Cost.multi_level mapped in
  Printf.printf "crossbar: %d x %d    (paper: 3 x 19)\n" report.Mcx.Crossbar.Cost.rows
    report.Mcx.Crossbar.Cost.cols;
  Printf.printf "area cost: %d        (paper prints 59; 3 x 19 = 57)\n"
    report.Mcx.Crossbar.Cost.area;
  Printf.printf "NAND gates: %d, inner connections: %d\n"
    (Mcx.Netlist.Network.gate_count mapped.Mcx.Netlist.Tech_map.network)
    (Mcx.Netlist.Network.inner_connection_count mapped.Mcx.Netlist.Tech_map.network);
  let ml = Mcx.Crossbar.Multilevel.place mapped in
  Printf.printf "exhaustive simulation against the SOP: %s\n"
    (if
       Mcx.Crossbar.Multilevel.agrees_with_reference ml
         (Mcx.Logic.Mo_cover.of_single paper_example_cover)
     then "MATCH (256/256 inputs)"
     else "MISMATCH");
  Printf.printf "\n%s" (Mcx.Crossbar.Render.multi_level ml)

(* ------------------------------------------------------------------ *)
(* FIG6                                                                *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  let samples = samples_default 200 in
  heading
    (Printf.sprintf
       "FIG 6 - two-level vs multi-level area, %d random functions per input size" samples);
  timed "fig6" ~trials:(4 * samples) (fun () ->
      let panels = Mcx.Experiments.Fig6.run ~pool:(pool ()) ~samples ~seed () in
      print_string (Mcx.Util.Texttable.render (Mcx.Experiments.Fig6.summary_table panels));
      List.iter
        (fun panel ->
          let path =
            Printf.sprintf "fig6_inputs%02d.csv" panel.Mcx.Experiments.Fig6.n_inputs
          in
          let oc = open_out path in
          output_string oc (Mcx.Experiments.Fig6.series_csv panel);
          close_out oc;
          Printf.printf "series written to %s\n" path)
        panels)

(* ------------------------------------------------------------------ *)
(* TABLE 1                                                             *)
(* ------------------------------------------------------------------ *)

let table1 () =
  heading "TABLE I - benchmark area, two-level vs multi-level, original vs negation";
  let rows = Mcx.Experiments.Table1.run () in
  print_string (Mcx.Util.Texttable.render (Mcx.Experiments.Table1.to_table rows))

(* ------------------------------------------------------------------ *)
(* FIG 7 / FIG 8: the mapping walk-through                             *)
(* ------------------------------------------------------------------ *)

let fig7_cover =
  Mcx.Logic.Mo_cover.create ~share:false ~n_inputs:3 ~n_outputs:2
    [
      { Mcx.Logic.Mo_cover.cube = Mcx.Logic.Cube.of_string "11-"; outputs = [| true; false |] };
      { Mcx.Logic.Mo_cover.cube = Mcx.Logic.Cube.of_string "-11"; outputs = [| true; false |] };
      { Mcx.Logic.Mo_cover.cube = Mcx.Logic.Cube.of_string "1-1"; outputs = [| false; true |] };
      { Mcx.Logic.Mo_cover.cube = Mcx.Logic.Cube.of_string "-11"; outputs = [| false; true |] };
    ]

let fig7_fig8 () =
  heading "FIG 7/8 - defect-aware mapping walk-through (O1 = x1x2 + x2x3, O2 = x1x3 + x2x3)";
  let fm = Mcx.Crossbar.Function_matrix.build fig7_cover in
  Printf.printf "Function matrix (FM), %d x %d:\n%s\n\n"
    (Mcx.Util.Bmatrix.rows fm.Mcx.Crossbar.Function_matrix.matrix)
    (Mcx.Util.Bmatrix.cols fm.Mcx.Crossbar.Function_matrix.matrix)
    (Mcx.Util.Bmatrix.to_string fm.Mcx.Crossbar.Function_matrix.matrix);
  let defects = Mcx.Crossbar.Defect_map.create ~rows:6 ~cols:10 in
  Mcx.Crossbar.Defect_map.set defects 0 0 Mcx.Crossbar.Junction.Stuck_open;
  Mcx.Crossbar.Defect_map.set defects 2 7 Mcx.Crossbar.Junction.Stuck_open;
  Mcx.Crossbar.Defect_map.set defects 5 3 Mcx.Crossbar.Junction.Stuck_open;
  Printf.printf "Defect map (o = stuck-open):\n%s\n\n"
    (Fmt.str "%a" Mcx.Crossbar.Defect_map.pp defects);
  let cm = Mcx.Mapping.Matching.cm_of_defects defects in
  Printf.printf "Crossbar matrix (CM):\n%s\n\n" (Mcx.Util.Bmatrix.to_string cm);
  let identity = Array.init 6 Fun.id in
  Printf.printf "naive (identity) mapping valid: %b\n"
    (Mcx.Mapping.Matching.check_assignment ~fm:fm.Mcx.Crossbar.Function_matrix.matrix ~cm
       identity);
  (match Mcx.Mapping.Hybrid.map fm cm with
  | Some assignment ->
    Printf.printf "hybrid mapping found: FM row -> crossbar row: %s\n"
      (String.concat " "
         (List.mapi (fun i t -> Printf.sprintf "%d->H%d" i t) (Array.to_list assignment)));
    let layout = Mcx.Crossbar.Layout.place ~row_assignment:assignment fm in
    Printf.printf "simulation under defects: %s\n"
      (if Mcx.verify ~defects layout then "MATCH (all 8 inputs)" else "MISMATCH")
  | None -> Printf.printf "hybrid mapping FAILED\n");
  Printf.printf "exact algorithm agrees a mapping exists: %b\n"
    (Mcx.Mapping.Exact.feasible fm cm)

(* ------------------------------------------------------------------ *)
(* TABLE 2                                                             *)
(* ------------------------------------------------------------------ *)

let table2 () =
  let samples = samples_default 200 in
  heading
    (Printf.sprintf
       "TABLE II - HBA vs EA success rate & runtime, optimum crossbars, 10%% stuck-open, %d samples"
       samples);
  let n_benchmarks = List.length Mcx.Benchmarks.Suite.table2 in
  timed "table2" ~trials:(samples * n_benchmarks) (fun () ->
      let rows = Mcx.Experiments.Table2.run ~pool:(pool ()) ~samples ~seed () in
      print_string (Mcx.Util.Texttable.render (Mcx.Experiments.Table2.to_table rows));
      Printf.printf "(* = implemented with its dual, as the paper's bold entries)\n";
      let oc = open_out "table2.csv" in
      output_string oc (Mcx.Experiments.Table2.to_csv rows);
      close_out oc;
      Printf.printf "csv written to table2.csv\n")

(* ------------------------------------------------------------------ *)
(* Extensions                                                          *)
(* ------------------------------------------------------------------ *)

let yield () =
  let samples = samples_default 100 in
  heading "EXT-YIELD - redundancy vs mapping yield (stuck-open + stuck-closed defects)";
  (* Bigger arrays collect stuck-closed defects in proportion to their
     area, so the survivable closed rate shrinks with the circuit: bw's
     3300-junction optimum array is hopeless at 1% closed. *)
  let configs =
    [
      ("rd53", 0.05, 0.01, [ 0; 1; 2; 3; 4 ]);
      ("misex1", 0.05, 0.01, [ 0; 1; 2; 3; 4 ]);
      ("bw", 0.02, 0.002, [ 0; 2; 4; 6; 8 ]);
    ]
  in
  let trials =
    samples
    * List.fold_left (fun acc (_, _, _, levels) -> acc + List.length levels) 0 configs
  in
  timed "yield" ~trials (fun () ->
      List.iter
        (fun (benchmark, open_rate, closed_rate, spare_levels) ->
          let sweep =
            Mcx.Experiments.Yield.run ~pool:(pool ()) ~samples ~seed ~benchmark
              ~open_rate ~closed_rate ~spare_levels ()
          in
          Printf.printf "\n%s (open %.1f%%, closed %.2f%%):\n" benchmark
            (100. *. open_rate) (100. *. closed_rate);
          print_string (Mcx.Util.Texttable.render (Mcx.Experiments.Yield.to_table sweep)))
        configs)

let mldefect () =
  let samples = samples_default 100 in
  heading "EXT-MLDEF - defect-tolerant mapping of multi-level designs (stuck-open)";
  let configs = [ ("misex1", 0); ("rd53", 0); ("squar5", 0); ("misex1", 4); ("rd53", 4) ] in
  timed "mldefect" ~trials:(4 * samples * List.length configs) (fun () ->
      List.iter
        (fun (benchmark, spare_rows) ->
          let result =
            Mcx.Experiments.Mldefect.run ~pool:(pool ()) ~samples ~spare_rows ~seed
              ~benchmark ()
          in
          Printf.printf "\n%s (+%d spare rows): %d NAND gates, multi-level area %d\n"
            benchmark spare_rows result.Mcx.Experiments.Mldefect.gates
            result.Mcx.Experiments.Mldefect.area;
          print_string
            (Mcx.Util.Texttable.render (Mcx.Experiments.Mldefect.to_table result)))
        configs)

let ratesweep () =
  let samples = samples_default 100 in
  heading "EXT-RATE - Psucc vs stuck-open rate: hybrid / exact / annealing baseline";
  timed "ratesweep" ~trials:(7 * samples * 2) (fun () ->
      List.iter
        (fun benchmark ->
          let sweep =
            Mcx.Experiments.Ratesweep.run ~pool:(pool ()) ~samples ~seed ~benchmark ()
          in
          Printf.printf "\n%s:\n" benchmark;
          print_string
            (Mcx.Util.Texttable.render (Mcx.Experiments.Ratesweep.to_table sweep)))
        [ "rd53"; "rd73" ])

let ablation () =
  let samples = samples_default 100 in
  heading "ABLATION 1 - factoring strategy (flat / quick / kernel) on the Fig. 6 workload";
  timed "ablation" ~trials:(samples * (2 + 5)) (fun () ->
      let rows =
        Mcx.Experiments.Ablation.factoring ~pool:(pool ()) ~samples ~input_sizes:[ 8; 10 ]
          ~seed ()
      in
      print_string
        (Mcx.Util.Texttable.render (Mcx.Experiments.Ablation.factoring_table rows));
      heading "ABLATION 2 - hybrid greedy order (top-down vs hardest-first) at 10% defects";
      let rows = Mcx.Experiments.Ablation.ordering ~pool:(pool ()) ~samples ~seed () in
      print_string
        (Mcx.Util.Texttable.render (Mcx.Experiments.Ablation.ordering_table rows));
      heading "ABLATION 3 - NAND fan-in limit (the paper allows 2..n)";
      let rows = Mcx.Experiments.Ablation.fanin () in
      print_string (Mcx.Util.Texttable.render (Mcx.Experiments.Ablation.fanin_table rows)))

let tradeoff () =
  heading "EXT-TRADE - area / computation steps / memristor writes per evaluation";
  let rows = Mcx.Experiments.Tradeoff.run () in
  print_string (Mcx.Util.Texttable.render (Mcx.Experiments.Tradeoff.to_table rows))

let aging () =
  let samples = samples_default 60 in
  heading "EXT-AGING - incremental repair vs remap as stuck-open faults accumulate";
  timed "aging" ~trials:(3 * samples) (fun () ->
      let results =
        List.map
          (fun benchmark ->
            Mcx.Experiments.Aging.run ~pool:(pool ()) ~samples ~seed ~benchmark ())
          [ "rd53"; "misex1"; "sqrt8" ]
      in
      print_string (Mcx.Util.Texttable.render (Mcx.Experiments.Aging.to_table results)))

let transient () =
  let evaluations = samples_default 300 in
  heading "EXT-TRANSIENT - write-upset error rate, two-level vs multi-level";
  timed "transient" ~trials:(4 * evaluations * 2) (fun () ->
      List.iter
        (fun benchmark ->
          let r =
            Mcx.Experiments.Transient.run ~pool:(pool ()) ~evaluations ~seed ~benchmark ()
          in
          Printf.printf "\n%s (writes per evaluation: %d two-level, %d multi-level):\n"
            benchmark r.Mcx.Experiments.Transient.two_level_writes
            r.Mcx.Experiments.Transient.multi_level_writes;
          print_string (Mcx.Util.Texttable.render (Mcx.Experiments.Transient.to_table r)))
        [ "rd53"; "misex1" ])

let margin () =
  heading "EXT-MARGIN - electrical sense margin vs line width (resistive-divider model)";
  let result = Mcx.Experiments.Margin.run () in
  let curve, benchmarks = Mcx.Experiments.Margin.to_tables result in
  Printf.printf "max electrically reliable width: %d junctions\n\n"
    result.Mcx.Experiments.Margin.max_reliable_width;
  print_string (Mcx.Util.Texttable.render curve);
  print_newline ();
  print_string (Mcx.Util.Texttable.render benchmarks)

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig3", fig3);
    ("fig5", fig5);
    ("fig6", fig6);
    ("table1", table1);
    ("fig7", fig7_fig8);
    ("fig8", fig7_fig8);
    ("table2", table2);
    ("yield", yield);
    ("mldefect", mldefect);
    ("ratesweep", ratesweep);
    ("ablation", ablation);
    ("tradeoff", tradeoff);
    ("aging", aging);
    ("transient", transient);
    ("margin", margin);
  ]

let () =
  (match Mcx.Util.Config.errors () with
  | [] -> ()
  | errs ->
    List.iter
      (fun { Mcx.Util.Config.knob; value; expected } ->
        Printf.eprintf "bench: invalid %s=%S (expected %s)\n" knob value expected)
      errs;
    exit 2);
  Mcx.Util.Telemetry.install_from_env ();
  let requested =
    match List.tl (Array.to_list Sys.argv) with
    | [] | [ "all" ] ->
      [
        "fig3"; "fig5"; "fig6"; "table1"; "fig7"; "table2"; "yield"; "mldefect";
        "ratesweep"; "ablation"; "tradeoff"; "aging"; "transient"; "margin";
      ]
    | names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some run -> run ()
      | None ->
        Printf.eprintf "unknown experiment %S; known: %s\n" name
          (String.concat ", " (List.map fst experiments));
        exit 2)
    requested;
  if !wall_events > 0 then begin
    Printf.eprintf "[mcx] total     wall %7.2fs over %d Monte Carlo experiments (MCX_JOBS=%d)\n%!"
      !wall_seconds !wall_events
      (Mcx.Util.Pool.jobs (pool ()));
    write_bench_json "BENCH_main.json";
    Printf.eprintf "[mcx] wall times written to BENCH_main.json\n%!"
  end;
  (* Degradation protocol: tables above are already printed (partial
     where trials failed permanently); record the failures durably and
     exit nonzero so CI notices. *)
  let code = Mcx.Util.Checkpoint.finalize () in
  if code <> 0 then exit code
