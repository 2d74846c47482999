(* Labeled-family tests of the telemetry store: name/label validation,
   kind discipline, series identity under label reordering, gauge
   last-write-wins, histogram geometry, the keyed commutative merge
   (bit-identical exporter output at any job count), both exporters (a
   hand-rolled OpenMetrics line-grammar validator and the mcx-metrics/1
   JSON shape), the deterministic [~times:false] projection, the span
   and counter families, the subsystem exporters, the bucket-percentile
   estimator, and byte goldens of memx's observability output. *)

open Mcx_util

(* Every test starts from a clean, enabled registry. The whole binary is
   single-threaded between Pool fan-outs, so reset is safe here. *)
let fresh () =
  Telemetry.reset ();
  Telemetry.enable ()

let find_family name snap = Telemetry.Snapshot.family snap name

let get_family name snap =
  match find_family name snap with
  | Some f -> f
  | None -> Alcotest.failf "family %s missing from snapshot" name

let series_value (f : Telemetry.Snapshot.family) labels =
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) labels in
  match
    List.find_opt (fun (s : Telemetry.Snapshot.series) -> s.labels = sorted) f.series
  with
  | Some s -> s.value
  | None ->
    Alcotest.failf "series %s%s missing" f.name
      (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels))

let counter_value f labels =
  match series_value f labels with
  | Telemetry.Snapshot.Counter n -> n
  | _ -> Alcotest.fail "expected a counter series"

(* --- validation ------------------------------------------------------- *)

let test_name_validation () =
  List.iter
    (fun (name, ok) ->
      Alcotest.(check bool) ("metric name " ^ name) ok (Telemetry.valid_metric_name name))
    [
      ("mcx_serve_requests_total", true);
      ("a:b:c", true);
      ("_leading", true);
      ("", false);
      ("9starts_with_digit", false);
      ("has-dash", false);
      ("has space", false);
    ];
  List.iter
    (fun (name, ok) ->
      Alcotest.(check bool) ("label name " ^ name) ok (Telemetry.valid_label_name name))
    [
      ("status", true);
      ("_ok", true);
      ("le", false);
      ("", false);
      ("9x", false);
      ("with:colon", false);
    ]

let expect_invalid_arg what f =
  Alcotest.(check bool) what true
    (match f () with exception Invalid_argument _ -> true | _ -> false)

let test_declare_rejects () =
  fresh ();
  expect_invalid_arg "bad metric name" (fun () ->
      Telemetry.declare Telemetry.Counter "not a name");
  Telemetry.declare Telemetry.Counter "mcx_test_total";
  expect_invalid_arg "kind flip on redeclare" (fun () ->
      Telemetry.declare Telemetry.Gauge "mcx_test_total");
  (* auto-declaration pins the kind too *)
  Telemetry.inc "mcx_test_auto";
  expect_invalid_arg "kind mismatch after auto-declare" (fun () ->
      Telemetry.set "mcx_test_auto" 1.0)

let test_recording_rejects () =
  fresh ();
  expect_invalid_arg "bad label name" (fun () ->
      Telemetry.inc ~labels:[ ("le", "1") ] "mcx_test_total");
  expect_invalid_arg "duplicate label" (fun () ->
      Telemetry.inc ~labels:[ ("a", "1"); ("a", "2") ] "mcx_test_total");
  Telemetry.declare Telemetry.Histogram "mcx_test_ns";
  expect_invalid_arg "inc into a histogram" (fun () -> Telemetry.inc "mcx_test_ns")

(* --- recording semantics ---------------------------------------------- *)

let test_label_order_is_identity () =
  fresh ();
  Telemetry.inc ~labels:[ ("a", "1"); ("b", "2") ] "mcx_test_total";
  Telemetry.inc ~labels:[ ("b", "2"); ("a", "1") ] ~n:2 "mcx_test_total";
  let f = get_family "mcx_test_total" (Telemetry.snapshot ()) in
  Alcotest.(check int) "one series" 1 (List.length f.series);
  Alcotest.(check int) "merged count" 3
    (counter_value f [ ("a", "1"); ("b", "2") ])

let test_gauge_last_write_wins () =
  fresh ();
  Telemetry.set "mcx_test_gauge" 1.5;
  Telemetry.set "mcx_test_gauge" 4.25;
  let f = get_family "mcx_test_gauge" (Telemetry.snapshot ()) in
  (match series_value f [] with
  | Telemetry.Snapshot.Gauge v -> Alcotest.(check (float 0.)) "last value" 4.25 v
  | _ -> Alcotest.fail "expected a gauge")

let test_histogram_geometry () =
  fresh ();
  (* 1ns -> bucket 0; 1000ns -> bucket 9 ([512,1024)); negative clamps. *)
  Telemetry.observe "mcx_test_ns" 1L;
  Telemetry.observe "mcx_test_ns" 1000L;
  Telemetry.observe "mcx_test_ns" (-5L);
  let f = get_family "mcx_test_ns" (Telemetry.snapshot ()) in
  match series_value f [] with
  | Telemetry.Snapshot.Histogram { count; sum_ns; buckets; _ } ->
    Alcotest.(check int) "count" 3 count;
    Alcotest.(check int64) "sum clamps negatives" 1001L sum_ns;
    Alcotest.(check int) "bucket 0" 2 buckets.(0);
    Alcotest.(check int) "bucket of 1000ns" 1 buckets.(Telemetry.bucket_of_ns 1000L)
  | _ -> Alcotest.fail "expected a histogram"

let test_disabled_is_inert () =
  Telemetry.reset ();
  Telemetry.disable ();
  Telemetry.inc "mcx_test_total";
  Telemetry.observe "mcx_test_ns" 5L;
  Alcotest.(check int) "nothing recorded" 0
    (List.length (Telemetry.Snapshot.families (Telemetry.snapshot ())))

(* --- determinism across job counts ------------------------------------ *)

(* Deterministic per-index work recorded from inside Pool workers: the
   keyed merge must make the exported deterministic projection
   byte-identical whatever the domain count. *)
let record_from_pool ~jobs =
  fresh ();
  Telemetry.declare ~help:"test rows" Telemetry.Counter "mcx_test_rows_total";
  Telemetry.declare Telemetry.Histogram "mcx_test_trial_ns";
  let pool = Pool.create ~jobs () in
  let _ =
    Pool.map pool 40 (fun i ->
        let bucket = if i mod 3 = 0 then "small" else "large" in
        Telemetry.inc ~labels:[ ("size", bucket) ] "mcx_test_rows_total";
        Telemetry.observe "mcx_test_trial_ns" (Int64.of_int ((i * 37) mod 5000));
        i)
  in
  Telemetry.snapshot ()

let test_jobs_identical_projection () =
  let s1 = record_from_pool ~jobs:1 in
  let s4 = record_from_pool ~jobs:4 in
  Alcotest.(check string) "OpenMetrics bytes agree"
    (Telemetry.Snapshot.to_openmetrics ~times:false s1)
    (Telemetry.Snapshot.to_openmetrics ~times:false s4);
  Alcotest.(check string) "mcx-metrics/1 bytes agree"
    (Json_out.to_string (Telemetry.Snapshot.to_json ~times:false s1))
    (Json_out.to_string (Telemetry.Snapshot.to_json ~times:false s4));
  (* The full (timed) export also agrees here because the observed
     durations are a function of the index alone. *)
  Alcotest.(check string) "timed bytes agree too"
    (Telemetry.Snapshot.to_openmetrics s1)
    (Telemetry.Snapshot.to_openmetrics s4)

(* --- OpenMetrics text grammar ----------------------------------------- *)

(* A deliberately small validator for the exposition subset we emit:
   every line is [# HELP <name> <text>], [# TYPE <name> <kind>],
   [# EOF], or [<name>{labels} <value>] with a quoted-and-escaped label
   grammar; [# EOF] is the final line. *)
let check_openmetrics text =
  let is_name s =
    s <> ""
    && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
    && String.for_all
         (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
         s
  in
  let check_sample line =
    let name_end =
      let rec go i =
        if i < String.length line then
          match line.[i] with
          | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> go (i + 1)
          | _ -> i
        else i
      in
      go 0
    in
    let name = String.sub line 0 name_end in
    if not (is_name name) then Alcotest.failf "bad sample name in %S" line;
    let rest = String.sub line name_end (String.length line - name_end) in
    let value_part =
      if rest <> "" && rest.[0] = '{' then begin
        match String.index_opt rest '}' with
        | None -> Alcotest.failf "unterminated label set in %S" line
        | Some close ->
          let labels = String.sub rest 1 (close - 1) in
          if labels = "" then Alcotest.failf "empty label braces in %S" line;
          List.iter
            (fun kv ->
              match String.index_opt kv '=' with
              | None -> Alcotest.failf "label without '=' in %S" line
              | Some eq ->
                let k = String.sub kv 0 eq in
                let v = String.sub kv (eq + 1) (String.length kv - eq - 1) in
                if not (is_name k) then Alcotest.failf "bad label name %S in %S" k line;
                if String.length v < 2 || v.[0] <> '"' || v.[String.length v - 1] <> '"'
                then Alcotest.failf "unquoted label value %S in %S" v line)
            (String.split_on_char ',' labels);
          String.sub rest (close + 1) (String.length rest - close - 1)
      end
      else rest
    in
    match String.split_on_char ' ' value_part with
    | [ ""; value ] ->
      if
        value <> "+Inf"
        && Float.is_nan (try float_of_string value with Failure _ -> Float.nan)
      then Alcotest.failf "unparseable sample value %S in %S" value line
    | _ -> Alcotest.failf "expected one space then a value in %S" line
  in
  let lines = String.split_on_char '\n' text in
  (match List.rev lines with
  | "" :: "# EOF" :: _ -> ()
  | _ -> Alcotest.fail "exposition must end with '# EOF\\n'");
  List.iter
    (fun line ->
      if line = "" || line = "# EOF" then ()
      else if String.length line > 7 && String.sub line 0 7 = "# HELP " then begin
        match String.index_from_opt line 7 ' ' with
        | Some i -> if not (is_name (String.sub line 7 (i - 7))) then
            Alcotest.failf "bad HELP name in %S" line
        | None -> Alcotest.failf "HELP without text in %S" line
      end
      else if String.length line > 7 && String.sub line 0 7 = "# TYPE " then begin
        match String.split_on_char ' ' line with
        | [ "#"; "TYPE"; name; kind ] ->
          if not (is_name name) then Alcotest.failf "bad TYPE name in %S" line;
          if not (List.mem kind [ "counter"; "gauge"; "histogram" ]) then
            Alcotest.failf "unknown TYPE kind in %S" line
        | _ -> Alcotest.failf "malformed TYPE line %S" line
      end
      else check_sample line)
    lines

let populated_snapshot () =
  fresh ();
  Telemetry.declare ~help:"requests by status" Telemetry.Counter "mcx_test_requests_total";
  Telemetry.declare ~help:"stage latency" Telemetry.Histogram "mcx_test_stage_ns";
  Telemetry.declare ~measured:true Telemetry.Gauge "mcx_test_jobs";
  Telemetry.inc ~labels:[ ("status", "ok") ] ~n:3 "mcx_test_requests_total";
  Telemetry.inc ~labels:[ ("status", "error") ] "mcx_test_requests_total";
  Telemetry.set "mcx_test_jobs" 4.0;
  Telemetry.observe ~labels:[ ("stage", "parse") ] "mcx_test_stage_ns" 900L;
  Telemetry.observe ~labels:[ ("stage", "parse") ] "mcx_test_stage_ns" 64_000L;
  Telemetry.snapshot ()

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_openmetrics_grammar () =
  let snap = populated_snapshot () in
  let timed = Telemetry.Snapshot.to_openmetrics snap in
  check_openmetrics timed;
  check_openmetrics (Telemetry.Snapshot.to_openmetrics ~times:false snap);
  Alcotest.(check bool) "help line" true
    (contains timed "# HELP mcx_test_requests_total requests by status");
  Alcotest.(check bool) "series sample" true
    (contains timed "mcx_test_requests_total{status=\"ok\"} 3");
  Alcotest.(check bool) "+Inf bucket" true (contains timed "le=\"+Inf\"");
  Alcotest.(check bool) "histogram count" true
    (contains timed "mcx_test_stage_ns_count{stage=\"parse\"} 2")

let test_projection_drops_measurements () =
  let snap = populated_snapshot () in
  let det = Telemetry.Snapshot.to_openmetrics ~times:false snap in
  Alcotest.(check bool) "measured gauge dropped" false (contains det "mcx_test_jobs");
  Alcotest.(check bool) "no buckets" false (contains det "_bucket");
  Alcotest.(check bool) "no sum" false (contains det "mcx_test_stage_ns_sum");
  Alcotest.(check bool) "count survives" true
    (contains det "mcx_test_stage_ns_count{stage=\"parse\"} 2");
  Alcotest.(check bool) "timed export keeps the gauge" true
    (contains (Telemetry.Snapshot.to_openmetrics snap) "mcx_test_jobs 4")

(* --- mcx-metrics/1 JSON shape ----------------------------------------- *)

let test_json_shape () =
  let snap = populated_snapshot () in
  let reparse times =
    match Json_out.of_string (Json_out.to_string (Telemetry.Snapshot.to_json ~times snap)) with
    | Ok json -> json
    | Error e -> Alcotest.failf "exporter emitted unparseable JSON: %s" e
  in
  let json = reparse true in
  let str path = Option.bind path Json_out.to_string_opt in
  Alcotest.(check (option string)) "schema" (Some "mcx-metrics/1")
    (str (Json_out.member "schema" json));
  let metrics =
    match Option.bind (Json_out.member "metrics" json) Json_out.to_list_opt with
    | Some l -> l
    | None -> Alcotest.fail "no metrics array"
  in
  let family name =
    match
      List.find_opt (fun f -> str (Json_out.member "name" f) = Some name) metrics
    with
    | Some f -> f
    | None -> Alcotest.failf "family %s missing from JSON" name
  in
  Alcotest.(check (option string)) "histogram type" (Some "histogram")
    (str (Json_out.member "type" (family "mcx_test_stage_ns")));
  let series =
    match
      Option.bind (Json_out.member "series" (family "mcx_test_stage_ns")) Json_out.to_list_opt
    with
    | Some [ s ] -> s
    | _ -> Alcotest.fail "expected one histogram series"
  in
  Alcotest.(check (option (float 0.))) "count" (Some 2.)
    (Option.bind (Json_out.member "count" series) Json_out.to_float_opt);
  Alcotest.(check bool) "sparse buckets present when timed" true
    (Option.is_some (Json_out.member "buckets" series));
  (* deterministic projection: no sum/buckets, no measured family *)
  let det = reparse false in
  let det_metrics =
    Option.value ~default:[]
      (Option.bind (Json_out.member "metrics" det) Json_out.to_list_opt)
  in
  Alcotest.(check bool) "measured family dropped" false
    (List.exists (fun f -> str (Json_out.member "name" f) = Some "mcx_test_jobs") det_metrics);
  let det_series =
    List.find_map
      (fun f ->
        if str (Json_out.member "name" f) = Some "mcx_test_stage_ns" then
          Option.bind (Json_out.member "series" f) Json_out.to_list_opt
        else None)
      det_metrics
  in
  match det_series with
  | Some [ s ] ->
    Alcotest.(check bool) "no sum_ns" true (Json_out.member "sum_ns" s = None);
    Alcotest.(check bool) "no buckets" true (Json_out.member "buckets" s = None)
  | _ -> Alcotest.fail "expected the histogram series in the projection"

(* --- subsystem exporters ------------------------------------------------ *)

let test_lru_exporter () =
  fresh ();
  let cache = Lru.create ~name:"serve.cache" ~capacity:2 () in
  Lru.put cache "a" 1;
  Lru.put cache "b" 2;
  ignore (Lru.find cache "a");
  ignore (Lru.find cache "zzz");
  Lru.put cache "c" 3 (* evicts b *);
  Lru.record_metrics cache;
  let snap = Telemetry.snapshot () in
  let count name = counter_value (get_family name snap) [ ("cache", "serve.cache") ] in
  Alcotest.(check int) "hits" 1 (count "mcx_cache_hits_total");
  Alcotest.(check int) "misses" 1 (count "mcx_cache_misses_total");
  Alcotest.(check int) "evictions" 1 (count "mcx_cache_evictions_total")

(* --- the span and counter families --------------------------------------- *)

(* span/observe_ns and count land in two ordinary families of the store,
   so every exporter sees their calls, totals and counter values. *)
let test_span_and_counter_families () =
  fresh ();
  Telemetry.count ~n:5 "trials";
  Telemetry.observe_ns "map.trial" 1234L;
  Telemetry.observe_ns "map.trial" 99L;
  Telemetry.span "map.span" (fun () -> ());
  let snap = Telemetry.snapshot () in
  Alcotest.(check int) "counter value" 5
    (counter_value (get_family "mcx_telemetry_counter" snap) [ ("name", "trials") ]);
  (match series_value (get_family "mcx_telemetry_span_ns" snap) [ ("span", "map.trial") ] with
  | Telemetry.Snapshot.Histogram { count; sum_ns; _ } ->
    Alcotest.(check int) "span calls" 2 count;
    Alcotest.(check int64) "span total" 1333L sum_ns
  | _ -> Alcotest.fail "expected a histogram series");
  let text = Telemetry.Snapshot.to_openmetrics ~times:false snap in
  check_openmetrics text;
  Alcotest.(check bool) "span family exported" true
    (contains text "mcx_telemetry_span_ns_count{span=\"map.span\"} 1");
  Alcotest.(check bool) "counter family exported" true
    (contains text "mcx_telemetry_counter{name=\"trials\"} 5")

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

(* The exported bytes of [memx serve --metrics/--metrics-json/--access-log]
   and of a traced [memx experiment yield] on the deterministic projection
   (MCX_TRACE_TIMES=0, every other MCX_* knob unset). A refactor of the
   recording core must leave them byte-identical. Every golden is
   recorded at MCX_JOBS=1; the serve exports and the yield summary must
   come out the same at MCX_JOBS=4.

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
      file "access.jsonl"; "--metrics"; file "metrics.txt"; "--metrics-json";
      file "metrics.json";
    ];
  [
    ("obs_serve_metrics_txt", read_file (file "metrics.txt"));
    ("obs_serve_metrics_json", read_file (file "metrics.json"));
    ("obs_serve_access", read_file (file "access.jsonl"));
  ]

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

let golden_names =
  [
    "obs_serve_metrics_txt"; "obs_serve_metrics_json"; "obs_serve_access";
    "obs_yield_summary"; "obs_yield_counters";
  ]

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
   Chrome trace-event document carrying the run's config snapshot. *)
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
    Alcotest.(check (option string))
      "config schema" (Some "mcx-config/1")
      (str [ "otherData"; "config"; "schema" ]);
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

let test_golden_text_grammar () =
  check_openmetrics (read_file (Filename.concat "golden" "obs_serve_metrics_txt.golden"))

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
          ( "validation",
            [
              Alcotest.test_case "name grammars" `Quick test_name_validation;
              Alcotest.test_case "declare rejects" `Quick test_declare_rejects;
              Alcotest.test_case "recording rejects" `Quick test_recording_rejects;
            ] );
          ( "recording",
            [
              Alcotest.test_case "label order is identity" `Quick
                test_label_order_is_identity;
              Alcotest.test_case "gauge last write wins" `Quick test_gauge_last_write_wins;
              Alcotest.test_case "histogram geometry" `Quick test_histogram_geometry;
              Alcotest.test_case "disabled is inert" `Quick test_disabled_is_inert;
            ] );
          ( "determinism",
            [
              Alcotest.test_case "jobs 1 = jobs 4 exports" `Quick
                test_jobs_identical_projection;
            ] );
          ( "exporters",
            [
              Alcotest.test_case "OpenMetrics grammar" `Quick test_openmetrics_grammar;
              Alcotest.test_case "times projection" `Quick
                test_projection_drops_measurements;
              Alcotest.test_case "mcx-metrics/1 shape" `Quick test_json_shape;
            ] );
          ( "bridges",
            [
              Alcotest.test_case "lru cache" `Quick test_lru_exporter;
            ] );
          ( "families",
            [
              Alcotest.test_case "span and counter families" `Quick
                test_span_and_counter_families;
            ] );
          ( "percentiles",
            [ Alcotest.test_case "bucket estimator" `Quick test_percentile_estimator ] );
          ( "experiment trace",
              [ Alcotest.test_case "stdout unchanged by --trace" `Quick test_trace_keeps_stdout ] );
          ( "goldens",
            List.map
              (fun name -> Alcotest.test_case name `Quick (check_golden name))
              golden_names
            @ [
                Alcotest.test_case "OpenMetrics golden grammar" `Quick
                  test_golden_text_grammar;
              ] );
        ])
