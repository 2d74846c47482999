(* The telemetry store as its two renderers show it: the geometry of a
   recorded span histogram, summaries and trace counters that do not
   depend on the job count, the summary's deterministic [~times:false]
   projection, the bucket-percentile estimator, a traced experiment, a
   trace path that cannot be written, and byte goldens of memx's
   observability output. *)

open Mcx_util

(* Every test starts from a clean, enabled store. The whole binary is
   single-threaded between Pool fan-outs, so reset is safe here. *)
let fresh () =
  Telemetry.reset ();
  Telemetry.enable ()

let find_span name snap =
  match List.assoc_opt name (Telemetry.Snapshot.spans snap) with
  | Some h -> h
  | None -> Alcotest.failf "span %s missing from snapshot" name

let render ?times snap = Texttable.render (Telemetry.Snapshot.summary_table ?times snap)

(* --- recording --------------------------------------------------------- *)

let test_histogram_geometry () =
  fresh ();
  (* 1ns -> bucket 0; 1000ns -> bucket 9 ([512,1024)); negative clamps. *)
  Telemetry.observe_ns "test.ns" 1L;
  Telemetry.observe_ns "test.ns" 1000L;
  Telemetry.observe_ns "test.ns" (-5L);
  let { Telemetry.Snapshot.count; sum_ns; buckets; _ } =
    find_span "test.ns" (Telemetry.snapshot ())
  in
  Alcotest.(check int) "count" 3 count;
  Alcotest.(check int64) "sum clamps negatives" 1001L sum_ns;
  Alcotest.(check int) "bucket 0" 2 buckets.(0);
  Alcotest.(check int) "bucket of 1000ns" 1 buckets.(Telemetry.bucket_of_ns 1000L)

(* --- determinism across job counts ------------------------------------ *)

(* Deterministic per-index work recorded from inside Pool workers: the
   keyed merge must make both renderings identical whatever the domain
   count. *)
let record_from_pool ~jobs =
  fresh ();
  let pool = Pool.create ~jobs () in
  let _ =
    Pool.map pool 40 (fun i ->
        Telemetry.count (if i mod 3 = 0 then "test.rows.small" else "test.rows.large");
        Telemetry.observe_ns "test.trial" (Int64.of_int ((i * 37) mod 5000));
        i)
  in
  Pool.shutdown pool;
  Telemetry.snapshot ()

let trace_counters snap =
  match
    Option.bind
      (Json_out.member "otherData" (Telemetry.Snapshot.chrome_trace snap))
      (Json_out.member "counters")
  with
  | Some counters -> Json_out.to_string counters
  | None -> Alcotest.fail "trace has no otherData.counters"

let test_jobs_identical_projection () =
  let s1 = record_from_pool ~jobs:1 in
  let s4 = record_from_pool ~jobs:4 in
  Alcotest.(check string) "summary projection agrees" (render ~times:false s1)
    (render ~times:false s4);
  Alcotest.(check string) "trace counters agree" (trace_counters s1) (trace_counters s4);
  Alcotest.(check string) "counter totals" {|{"test.rows.large":26,"test.rows.small":14}|}
    (trace_counters s1);
  (* The timed summary also agrees here because the observed durations
     are a function of the index alone. *)
  Alcotest.(check string) "timed summary agrees too" (render s1) (render s4)

(* --- the times projection ----------------------------------------------- *)

let test_projection_drops_measurements () =
  fresh ();
  Telemetry.observe_ns "test.stage" 900L;
  Telemetry.observe_ns "test.stage" 64_000L;
  Telemetry.count ~n:3 "test.requests";
  let snap = Telemetry.snapshot () in
  let header text = List.nth (String.split_on_char '\n' text) 1 in
  let columns text =
    String.split_on_char '|' (header text)
    |> List.map String.trim
    |> List.filter (fun c -> c <> "")
  in
  let det = render ~times:false snap in
  Alcotest.(check (list string)) "deterministic columns" [ "phase"; "calls" ] (columns det);
  Alcotest.(check (list string)) "timed columns"
    [ "phase"; "calls"; "total"; "mean"; "p50"; "p99"; "max" ]
    (columns (render snap));
  Alcotest.(check bool) "span calls survive" true (Memx_run.contains det "|     2 |");
  Alcotest.(check bool) "counter survives" true (Memx_run.contains det "| test.requests |")

(* --- the summary's percentile estimator -------------------------------- *)

let test_percentile_estimator () =
  let buckets = Array.make Telemetry.n_buckets 0 in
  (* 90 observations of 1000ns (bucket [512,1024)) and 10 of 100000ns
     (bucket [65536,131072)) *)
  buckets.(Telemetry.bucket_of_ns 1000L) <- 90;
  buckets.(Telemetry.bucket_of_ns 100_000L) <- 10;
  let fixture =
    {
      Telemetry.Snapshot.count = 100;
      sum_ns = 1_090_000L;
      min_ns = 1000L;
      max_ns = 100_000L;
      buckets;
    }
  in
  let p50 = Telemetry.Snapshot.percentile_ns fixture ~p:0.50 in
  let p95 = Telemetry.Snapshot.percentile_ns fixture ~p:0.95 in
  Alcotest.(check int64) "p50 at the small bucket's edge" 1023L p50;
  Alcotest.(check int64) "p95 clamped to the observed max" 100_000L p95;
  Alcotest.(check int64) "empty histogram" 0L
    (Telemetry.Snapshot.percentile_ns
       { fixture with count = 0; buckets = Array.make Telemetry.n_buckets 0 }
       ~p:0.5);
  (* the same observations recorded through the store agree *)
  fresh ();
  for i = 1 to 100 do
    Telemetry.observe_ns "s" (if i <= 90 then 1000L else 100_000L)
  done;
  match List.assoc_opt "s" (Telemetry.Snapshot.spans (Telemetry.snapshot ())) with
  | Some recorded ->
    Alcotest.(check int64) "recorded aggregate agrees" p95
      (Telemetry.Snapshot.percentile_ns recorded ~p:0.95)
  | None -> Alcotest.fail "span missing"

(* --- goldens: memx observability bytes --------------------------------- *)

(* The bytes of [memx serve --access-log] and of a traced [memx
   experiment yield] on the deterministic projection (MCX_TRACE_TIMES=0,
   every other MCX_* knob unset). A refactor of the recording core must
   leave them byte-identical. Every golden is recorded at MCX_JOBS=1;
   the access log and the yield summary must come out the same at
   MCX_JOBS=4.

   Regenerating (only when an intentional schema change lands; the runs
   call ../bin/memx.exe, so start from the build directory):

     dune build
     (cd _build/default/test && MCX_GOLDEN_REGEN=$PWD/../../../test/golden ./test_metrics.exe) *)

open Memx_run

let requests = "../examples/serve_requests.jsonl"

let serve ?env tag =
  let file name = Printf.sprintf "obs%s_%s" tag name in
  run_memx ?env ~stderr_path:(file "serve.err")
    [
      "serve"; "--in"; requests; "--in"; requests; "-o"; file "resp.jsonl"; "--access-log";
      file "access.jsonl";
    ];
  [ ("obs_serve_access", read_file (file "access.jsonl")) ]

let serve_outputs = lazy (serve "")

let traced_yield ?env () =
  run_memx ?env ~stderr_path:"obs_yield.err"
    [ "experiment"; "yield"; "--samples"; "4"; "--trace"; "obs_yield_trace.json" ]

let yield_outputs =
  lazy
    (traced_yield ();
     let counters =
       match Json_out.of_string (read_file "obs_yield_trace.json") with
       | Ok trace -> (
         match Option.bind (Json_out.member "otherData" trace) (Json_out.member "counters") with
         | Some c -> Json_out.to_string c ^ "\n"
         | None -> failwith "trace has no otherData.counters")
       | Error e -> failwith ("unparseable trace: " ^ e)
     in
     [ ("obs_yield_summary", read_file "obs_yield.err"); ("obs_yield_counters", counters) ])

(* Inputs that must match a golden without regenerating it. *)
let serve_jobs4_outputs = lazy (serve ~env:[ "MCX_JOBS=4" ] "_j4")

let yield_jobs4_summary =
  lazy
    (traced_yield ~env:[ "MCX_JOBS=4" ] ();
     read_file "obs_yield.err")

let golden_outputs () = Lazy.force serve_outputs @ Lazy.force yield_outputs

let golden_inputs () =
  golden_outputs ()
  @ Lazy.force serve_jobs4_outputs
  @ [ ("obs_yield_summary", Lazy.force yield_jobs4_summary) ]

let golden_names = [ "obs_serve_access"; "obs_yield_summary"; "obs_yield_counters" ]

let check_golden name () =
  let path = Filename.concat "golden" (name ^ ".golden") in
  List.iteri
    (fun i (_, actual) ->
      if not (String.equal (read_file path) actual) then begin
        let actual_path = Printf.sprintf "%s.%d.actual" name i in
        write_file actual_path actual;
        Alcotest.failf "%s drifted from %s (actual written to %s)" name path actual_path
      end)
    (List.filter (fun (n, _) -> String.equal n name) (golden_inputs ()))

(* --- memx experiment --trace ------------------------------------------- *)

(* Tracing must not perturb experiment output, and the trace must be a
   Chrome trace-event document. *)
let test_trace_keeps_stdout () =
  let yield50 = [ "experiment"; "yield"; "--samples"; "50" ] in
  run_memx ~stdout_path:"trace_plain.out" ~stderr_path:"trace_plain.err" yield50;
  run_memx ~stdout_path:"trace_traced.out" ~stderr_path:"trace_traced.err"
    (yield50 @ [ "--trace"; "trace_yield50.json" ]);
  let plain = read_file "trace_plain.out" in
  Alcotest.(check bool) "stdout non-empty" true (String.length plain > 0);
  Alcotest.(check string) "stdout with --trace" plain (read_file "trace_traced.out");
  match Json_out.of_string (read_file "trace_yield50.json") with
  | Error e -> Alcotest.failf "unparseable trace: %s" e
  | Ok trace ->
    let field path =
      List.fold_left (fun j k -> Option.bind j (Json_out.member k)) (Some trace) path
    in
    let str path = Option.bind (field path) Json_out.to_string_opt in
    Alcotest.(check (option string))
      "trace schema" (Some "mcx-trace/1") (str [ "otherData"; "schema" ]);
    Alcotest.(check bool) "no config in otherData" true
      (Option.is_none (field [ "otherData"; "config" ]));
    let complete_events =
      match Option.bind (field [ "traceEvents" ]) Json_out.to_list_opt with
      | None -> Alcotest.fail "trace has no traceEvents list"
      | Some events ->
        List.filter
          (fun e ->
            Option.bind (Json_out.member "ph" e) Json_out.to_string_opt = Some "X")
          events
    in
    Alcotest.(check bool) "at least one ph:X event" true (complete_events <> [])

(* A trace path that cannot be written fails the run before it does any
   work: exit 2 naming the path, no experiment table on stdout and no
   response file from serve. *)
let test_unwritable_trace () =
  let trace = "no_such_dir/trace.json" in
  let check_failure err =
    let stderr = read_file err in
    Alcotest.(check bool) ("names the path: " ^ stderr) true
      (contains stderr ("memx: cannot write the trace: " ^ trace))
  in
  run_memx ~status:2 ~stdout_path:"unwritable_fig3.out" ~stderr_path:"unwritable_fig3.err"
    [ "experiment"; "fig3"; "--trace"; trace ];
  Alcotest.(check string) "no stdout" "" (read_file "unwritable_fig3.out");
  check_failure "unwritable_fig3.err";
  if Sys.file_exists "unwritable_resp.jsonl" then Sys.remove "unwritable_resp.jsonl";
  run_memx ~status:2 ~env:[ "MCX_TRACE=" ^ trace ] ~stderr_path:"unwritable_serve.err"
    [ "serve"; "--in"; requests; "-o"; "unwritable_resp.jsonl" ];
  Alcotest.(check bool) "no response file" false (Sys.file_exists "unwritable_resp.jsonl");
  check_failure "unwritable_serve.err"

let () =
  match Config.golden_regen () with
  | Some dir ->
    List.iter
      (fun (name, contents) ->
        let path = Filename.concat dir (name ^ ".golden") in
        write_file path contents;
        Printf.printf "wrote %s\n%!" path)
      (golden_outputs ())
  | None ->
  let cleanup () =
    Telemetry.reset ();
    Telemetry.disable ()
  in
  Fun.protect ~finally:cleanup (fun () ->
      Alcotest.run "metrics"
        [
          ("recording", [ Alcotest.test_case "histogram geometry" `Quick test_histogram_geometry ]);
          ( "determinism",
            [
              Alcotest.test_case "jobs 1 = jobs 4 exports" `Quick
                test_jobs_identical_projection;
            ] );
          ( "exporters",
            [
              Alcotest.test_case "times projection" `Quick
                test_projection_drops_measurements;
            ] );
          ( "percentiles",
            [ Alcotest.test_case "bucket estimator" `Quick test_percentile_estimator ] );
          ( "experiment trace",
            [
              Alcotest.test_case "stdout unchanged by --trace" `Quick test_trace_keeps_stdout;
              Alcotest.test_case "unwritable path fails first" `Quick test_unwritable_trace;
            ] );
          ( "goldens",
            List.map
              (fun name -> Alcotest.test_case name `Quick (check_golden name))
              golden_names );
        ])
