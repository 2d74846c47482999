open Mcx_util

(* Telemetry state is process-global; every test starts from a clean
   slate.  Alcotest runs cases sequentially, so this does not race. *)
let fresh () =
  Telemetry.disable ();
  Telemetry.reset ()

let contains ~affix s =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

(* --- Json_out ------------------------------------------------------- *)

let js v = Json_out.to_string v

let test_json_scalars () =
  Alcotest.(check string) "null" "null" (js Json_out.Null);
  Alcotest.(check string) "true" "true" (js (Json_out.Bool true));
  Alcotest.(check string) "false" "false" (js (Json_out.Bool false));
  Alcotest.(check string) "int" "-42" (js (Json_out.Int (-42)));
  Alcotest.(check string) "str" "\"hi\"" (js (Json_out.Str "hi"))

let test_json_escaping () =
  Alcotest.(check string) "quote" {|"a\"b"|} (js (Json_out.Str {|a"b|}));
  Alcotest.(check string) "backslash" {|"a\\b"|} (js (Json_out.Str {|a\b|}));
  Alcotest.(check string) "newline tab cr" "\"\\n\\t\\r\"" (js (Json_out.Str "\n\t\r"));
  Alcotest.(check string) "backspace formfeed" "\"\\b\\f\"" (js (Json_out.Str "\b\012"));
  Alcotest.(check string) "other control chars" "\"\\u0000\\u001f\""
    (js (Json_out.Str "\000\031"));
  (* bytes >= 0x80 pass through untouched (UTF-8 payloads stay valid) *)
  Alcotest.(check string) "high bytes pass through" "\"\xc3\xa9\""
    (js (Json_out.Str "\xc3\xa9"))

let test_json_non_finite_floats () =
  Alcotest.(check string) "nan is null" "null" (js (Json_out.Float Float.nan));
  Alcotest.(check string) "inf is null" "null" (js (Json_out.Float Float.infinity));
  Alcotest.(check string) "-inf is null" "null" (js (Json_out.Float Float.neg_infinity))

let test_json_float_round_trip () =
  List.iter
    (fun f ->
      let printed = js (Json_out.Float f) in
      Alcotest.(check (float 0.)) (Printf.sprintf "%h survives" f) f
        (float_of_string printed))
    [ 0.; 1.; -1.5; 0.1; 1. /. 3.; Float.pi; 1e-308; 1.7976931348623157e308; 123.456 ];
  (* the short decimals print short, not with 17-digit noise *)
  Alcotest.(check string) "0.1 prints short" "0.1" (js (Json_out.Float 0.1))

let test_json_nesting () =
  let v =
    Json_out.Obj
      [
        ("a", Json_out.List [ Json_out.Int 1; Json_out.Null ]);
        ("b", Json_out.Obj [ ("c", Json_out.Str "d") ]);
        ("empty", Json_out.List []);
      ]
  in
  Alcotest.(check string) "compact nesting"
    {|{"a":[1,null],"b":{"c":"d"},"empty":[]}|} (js v)

(* --- Json_out parsing hardening -------------------------------------- *)

let expect_parse_error input fragment =
  match Json_out.of_string input with
  | Ok v -> Alcotest.failf "expected a parse error, got %s" (js v)
  | Error e ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) (Printf.sprintf "%S mentions %S" e fragment) true
      (contains e fragment)

let nested_brackets depth =
  String.concat "" (List.init depth (fun _ -> "["))
  ^ "null"
  ^ String.concat "" (List.init depth (fun _ -> "]"))

let test_json_depth_cap () =
  (* Exactly max_depth containers parse; one more is an error, not a
     stack overflow. *)
  (match Json_out.of_string (nested_brackets Json_out.max_depth) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "max_depth should parse: %s" e);
  expect_parse_error (nested_brackets (Json_out.max_depth + 1)) "nesting too deep";
  expect_parse_error (nested_brackets 100_000) "nesting too deep";
  (* Objects count against the same limit. *)
  let deep_objs =
    String.concat "" (List.init (Json_out.max_depth + 1) (fun _ -> {|{"k":|}))
    ^ "null"
    ^ String.make (Json_out.max_depth + 1) '}'
  in
  expect_parse_error deep_objs "nesting too deep"

let test_json_surrogates () =
  (* A valid surrogate pair combines into one code point, re-encoded as
     4-byte UTF-8 (U+1F600). *)
  (match Json_out.of_string "\"\\ud83d\\ude00\"" with
  | Ok (Json_out.Str s) -> Alcotest.(check string) "astral plane" "\xf0\x9f\x98\x80" s
  | Ok v -> Alcotest.failf "expected a string, got %s" (js v)
  | Error e -> Alcotest.failf "surrogate pair should parse: %s" e);
  expect_parse_error {|"\ud800"|} "lone high surrogate";
  expect_parse_error {|"\ud800x"|} "lone high surrogate";
  expect_parse_error {|"\ud800A"|} "lone high surrogate";
  expect_parse_error {|"\udc00"|} "lone low surrogate";
  (* BMP escapes still work, including the highest non-surrogate ones. *)
  match Json_out.of_string "\"\\u0041\\uffff\"" with
  | Ok (Json_out.Str s) -> Alcotest.(check string) "bmp escapes" "A\xef\xbf\xbf" s
  | Ok v -> Alcotest.failf "expected a string, got %s" (js v)
  | Error e -> Alcotest.failf "BMP escapes should parse: %s" e

let test_json_trailing_garbage () =
  expect_parse_error "null x" "trailing";
  expect_parse_error "1 2" "trailing";
  expect_parse_error {|{"a":1} []|} "trailing";
  (* Surrounding whitespace alone is fine. *)
  match Json_out.of_string "  [1, 2]\t\n" with
  | Ok v -> Alcotest.(check string) "whitespace tolerated" "[1,2]" (js v)
  | Error e -> Alcotest.failf "whitespace should be fine: %s" e

let test_json_parse_round_trip () =
  (* of_string inverts to_string on a representative emitted tree. *)
  let v =
    Json_out.Obj
      [
        ("s", Json_out.Str "a\"b\\c\n\xc3\xa9");
        ("xs", Json_out.List [ Json_out.Int (-3); Json_out.Float 0.25; Json_out.Null ]);
        ("b", Json_out.Bool false);
        ("nested", Json_out.Obj [ ("empty", Json_out.List []) ]);
      ]
  in
  match Json_out.of_string (js v) with
  | Ok parsed -> Alcotest.(check string) "round trip" (js v) (js parsed)
  | Error e -> Alcotest.failf "emitted JSON must parse: %s" e

(* --- span statistics from trace events ------------------------------ *)

let find_span report name = List.assoc_opt name (Telemetry.Snapshot.spans report)

(* An [mcx-trace/1] document holding one complete event per (name,
   duration) pair, on domain 0, one microsecond apart. *)
let trace_of durations =
  Json_out.Obj
    [
      ( "traceEvents",
        Json_out.List
          (List.mapi
             (fun i (name, ns) ->
               Json_out.Obj
                 [
                   ("name", Json_out.Str name);
                   ("ph", Json_out.Str "X");
                   ("ts", Json_out.Float (float_of_int i));
                   ("dur", Json_out.Float (float_of_int ns /. 1e3));
                   ("pid", Json_out.Int 1);
                   ("tid", Json_out.Int 0);
                 ])
             durations) );
      ( "otherData",
        Json_out.Obj
          [
            ("schema", Json_out.Str "mcx-trace/1");
            ("dropped_events", Json_out.Int 0);
            ("counters", Json_out.Obj []);
          ] );
    ]

(* Through the trace's bytes and back, as [memx report] reads it. *)
let read_back json =
  match Result.bind (Json_out.of_string (Json_out.to_string json)) Telemetry.Snapshot.of_chrome_trace with
  | Ok snap -> snap
  | Error e -> Alcotest.failf "trace does not read back: %s" e

(* A lone 9.76 s span: its percentiles are the observation itself, not
   the 17.18 s upper edge of a log2 bucket [2^33, 2^34) ns. *)
let test_single_observation_percentiles () =
  let report = read_back (trace_of [ ("t.long", 9_760_000_000) ]) in
  (match find_span report "t.long" with
  | Some s ->
    Alcotest.(check int) "max is the observation" 9_760_000_000 s.Telemetry.Snapshot.max_ns;
    Alcotest.(check (float 0.)) "p50 = max" 9.76e9 s.Telemetry.Snapshot.p50_ns;
    Alcotest.(check (float 0.)) "p99 = max" 9.76e9 s.Telemetry.Snapshot.p99_ns
  | None -> Alcotest.fail "span missing");
  let summary = Texttable.render (Telemetry.Snapshot.summary_table report) in
  Alcotest.(check bool) "no bucket edge in the summary" false
    (contains ~affix:"17.18s" summary)

let prop_exact_statistics =
  QCheck2.Test.make ~name:"exact p50, p99 and max" ~count:300
    QCheck2.Gen.(
      list_size (int_range 1 60)
        (pair
           (oneofl [ "t.a"; "t.b"; "t.c" ])
           (oneof [ int_range 0 5000; int_range 0 20_000_000_000 ])))
    (fun durations ->
      let report = read_back (trace_of durations) in
      List.for_all
        (fun name ->
          let ns = List.filter_map (fun (n, d) -> if String.equal n name then Some d else None) durations in
          match (ns, find_span report name) with
          | [], None -> true
          | [], Some _ | _ :: _, None -> false
          | _ :: _, Some s ->
            let floats = List.map float_of_int ns in
            s.Telemetry.Snapshot.calls = List.length ns
            && s.Telemetry.Snapshot.total_ns = List.fold_left ( + ) 0 ns
            && Float.equal s.Telemetry.Snapshot.p50_ns (Stats.percentile floats 50.)
            && Float.equal s.Telemetry.Snapshot.p99_ns (Stats.percentile floats 99.)
            && s.Telemetry.Snapshot.max_ns = List.fold_left max 0 ns)
        [ "t.a"; "t.b"; "t.c" ])

(* Spans recorded on two domains, nested or not, with counters: the trace
   they write reads back to the same timed summary and the same trace. *)
let prop_trace_round_trip =
  QCheck2.Test.make ~name:"of_chrome_trace inverts chrome_trace" ~count:30
    QCheck2.Gen.(list_size (int_range 0 40) (pair (int_bound 3) (int_bound 3)))
    (fun work ->
      fresh ();
      Telemetry.enable ();
      let work = Array.of_list work in
      let pool = Pool.create ~jobs:2 () in
      ignore
        (Pool.map pool (Array.length work) (fun i ->
             let name, inner = work.(i) in
             Telemetry.span (Printf.sprintf "t.rt%d" name) (fun () ->
                 for _ = 1 to inner do
                   Telemetry.span "t.rt_inner" ignore
                 done;
                 Telemetry.count ~n:inner "t.rt_units")));
      Pool.shutdown pool;
      let report = Telemetry.snapshot () in
      fresh ();
      let back = read_back (Telemetry.Snapshot.chrome_trace report) in
      let render r = Texttable.render (Telemetry.Snapshot.summary_table r) in
      let trace r = Json_out.to_string (Telemetry.Snapshot.chrome_trace r) in
      String.equal (render report) (render back) && String.equal (trace report) (trace back))

(* One buffer filled past its cap keeps 1M events and counts the rest:
   the summary's calls are the kept events, plus a dropped-events row. *)
let test_dropped_events_row () =
  fresh ();
  Telemetry.enable ();
  for _ = 1 to 1_000_005 do
    Telemetry.span "t.flood" ignore
  done;
  let report = Telemetry.snapshot () in
  fresh ();
  let summary = Texttable.render (Telemetry.Snapshot.summary_table ~times:false report) in
  let row name =
    String.split_on_char '\n' summary
    |> List.find_opt (contains ~affix:("| " ^ name ^ " "))
    |> Option.map (fun line ->
           String.split_on_char '|' line |> List.map String.trim |> List.filter (( <> ) ""))
  in
  Alcotest.(check (option (list string)))
    "calls are the kept events" (Some [ "t.flood"; "1000000" ]) (row "t.flood");
  Alcotest.(check (option (list string)))
    "dropped-events row" (Some [ "telemetry.dropped_events"; "5" ])
    (row "telemetry.dropped_events")

(* --- spans and counters --------------------------------------------- *)

let test_span_nesting () =
  fresh ();
  Telemetry.enable ();
  let v =
    Telemetry.span "t.outer" (fun () ->
        Telemetry.span "t.inner" (fun () -> 2 + 2)
        + Telemetry.span "t.inner" (fun () -> 1))
  in
  Alcotest.(check int) "span is transparent" 5 v;
  let report = Telemetry.snapshot () in
  let calls name =
    match find_span report name with Some s -> s.Telemetry.Snapshot.calls | None -> 0
  in
  Alcotest.(check int) "outer once" 1 (calls "t.outer");
  Alcotest.(check int) "inner twice" 2 (calls "t.inner");
  (match find_span report "t.inner" with
  | Some s ->
    Alcotest.(check bool) "total >= max" true
      (s.Telemetry.Snapshot.total_ns >= s.Telemetry.Snapshot.max_ns)
  | None -> Alcotest.fail "inner span missing")

let test_span_exception_safety () =
  fresh ();
  Telemetry.enable ();
  (try Telemetry.span "t.raises" (fun () -> raise Exit) with Exit -> ());
  let report = Telemetry.snapshot () in
  (match find_span report "t.raises" with
  | Some s -> Alcotest.(check int) "recorded despite raise" 1 s.Telemetry.Snapshot.calls
  | None -> Alcotest.fail "span lost on exception")

let test_disabled_records_nothing () =
  fresh ();
  Alcotest.(check bool) "disabled" false (Telemetry.enabled ());
  let v = Telemetry.span "t.off" (fun () -> 7) in
  Alcotest.(check int) "span passes through" 7 v;
  Telemetry.count "t.off_counter";
  let report = Telemetry.snapshot () in
  Alcotest.(check bool) "no span" true (find_span report "t.off" = None);
  Alcotest.(check bool) "no counter" true
    (List.assoc_opt "t.off_counter" (Telemetry.Snapshot.counters report) = None)

let test_counters () =
  fresh ();
  Telemetry.enable ();
  Telemetry.count "t.c";
  Telemetry.count ~n:41 "t.c";
  let report = Telemetry.snapshot () in
  Alcotest.(check (option int)) "counter sums" (Some 42)
    (List.assoc_opt "t.c" (Telemetry.Snapshot.counters report))

(* --- the disabled path allocates nothing ------------------------------ *)

let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* 10 000 calls of each entry point with telemetry off must allocate no
   more than an empty measurement does; this is the regression guard for
   the "one load and one branch" promise in telemetry.mli. *)
let test_disabled_path_allocation () =
  fresh ();
  let calls = 10_000 and name = "t.alloc" in
  let baseline = minor_words_of (fun () -> ()) in
  let no_alloc what f =
    Alcotest.(check (float 0.)) (what ^ " allocates nothing") baseline (minor_words_of f)
  in
  let body () = () in
  no_alloc "count" (fun () ->
      for _ = 1 to calls do
        Telemetry.count name
      done);
  no_alloc "span" (fun () ->
      for _ = 1 to calls do
        Telemetry.span name body
      done);
  (* A named cache pays nothing for its counter names. *)
  let named = Lru.create ~name:"t.cache" ~capacity:4 () in
  let anonymous = Lru.create ~capacity:4 () in
  Lru.put named "k" 1;
  Lru.put anonymous "k" 1;
  let lookups cache key () =
    for _ = 1 to calls do
      ignore (Lru.find cache key)
    done
  in
  Alcotest.(check (float 0.)) "named hit = anonymous hit"
    (minor_words_of (lookups anonymous "k"))
    (minor_words_of (lookups named "k"));
  Alcotest.(check (float 0.)) "named miss = anonymous miss"
    (minor_words_of (lookups anonymous "x"))
    (minor_words_of (lookups named "x"))

(* --- deterministic merge across job counts --------------------------- *)

(* The same per-trial instrumentation, fanned out over [jobs] domains; the
   deterministic projection of the summary must not depend on [jobs]. *)
let run_workload jobs =
  fresh ();
  Telemetry.enable ();
  let pool = Pool.create ~jobs () in
  let total =
    Array.fold_left ( + ) 0
      (Pool.map pool 64 (fun i ->
           Telemetry.span "t.trial" (fun () ->
               Telemetry.count ~n:(i mod 3) "t.units";
               Telemetry.count "t.trials";
               i)))
  in
  Pool.shutdown pool;
  let report = Telemetry.snapshot () in
  let summary = Texttable.render (Telemetry.Snapshot.summary_table ~times:false report) in
  Telemetry.disable ();
  (total, summary)

let test_deterministic_merge () =
  let total1, summary1 = run_workload 1 in
  let total4, summary4 = run_workload 4 in
  Alcotest.(check int) "fold result identical" total1 total4;
  Alcotest.(check string) "summary identical at 1 vs 4 jobs" summary1 summary4;
  Alcotest.(check bool) "summary names the span" true
    (contains ~affix:"t.trial" summary1);
  Alcotest.(check bool) "counter total is jobs-independent" true
    (contains ~affix:"64" summary1)

let test_report_merge_order_independent () =
  fresh ();
  Telemetry.enable ();
  Telemetry.span "t.m" (fun () -> ());
  Telemetry.count ~n:3 "t.mc";
  let a = Telemetry.snapshot () in
  Telemetry.reset ();
  Telemetry.span "t.m" (fun () -> ());
  Telemetry.span "t.other" (fun () -> ());
  Telemetry.count ~n:4 "t.mc";
  let b = Telemetry.snapshot () in
  Telemetry.disable ();
  let render r = Texttable.render (Telemetry.Snapshot.summary_table ~times:false r) in
  Alcotest.(check string) "merge commutes"
    (render (Telemetry.Snapshot.merge a b))
    (render (Telemetry.Snapshot.merge b a));
  let merged = Telemetry.Snapshot.merge a b in
  Alcotest.(check (option int)) "counters sum" (Some 7)
    (List.assoc_opt "t.mc" (Telemetry.Snapshot.counters merged));
  match find_span merged "t.m" with
  | Some s -> Alcotest.(check int) "span calls sum" 2 s.Telemetry.Snapshot.calls
  | None -> Alcotest.fail "merged span missing"

(* --- chrome trace export -------------------------------------------- *)

let test_chrome_trace_shape () =
  fresh ();
  Telemetry.enable ();
  Telemetry.span "t.traced" (fun () -> Telemetry.span "t.traced_inner" (fun () -> ()));
  Telemetry.count ~n:9 "t.traced_count";
  let report = Telemetry.snapshot () in
  Telemetry.disable ();
  let json = Json_out.to_string (Telemetry.Snapshot.chrome_trace report) in
  List.iter
    (fun affix ->
      Alcotest.(check bool) (Printf.sprintf "trace contains %s" affix) true
        (contains ~affix json))
    [
      {|"traceEvents":[|};
      {|"schema":"mcx-trace/1"|};
      {|"ph":"X"|};
      {|"name":"t.traced"|};
      {|"name":"t.traced_inner"|};
      {|"name":"process_name"|};
      {|"t.traced_count":9|};
      {|"dropped_events":0|};
    ]

let () =
  Alcotest.run "telemetry"
    [
      ( "json_out",
        [
          Alcotest.test_case "scalars" `Quick test_json_scalars;
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "non-finite floats" `Quick test_json_non_finite_floats;
          Alcotest.test_case "float round trip" `Quick test_json_float_round_trip;
          Alcotest.test_case "nesting" `Quick test_json_nesting;
        ] );
      ( "json_in",
        [
          Alcotest.test_case "depth cap" `Quick test_json_depth_cap;
          Alcotest.test_case "surrogates" `Quick test_json_surrogates;
          Alcotest.test_case "trailing garbage" `Quick test_json_trailing_garbage;
          Alcotest.test_case "parse round trip" `Quick test_json_parse_round_trip;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "single observation: p50 = p99 = max" `Quick
            test_single_observation_percentiles;
          QCheck_alcotest.to_alcotest prop_exact_statistics;
          QCheck_alcotest.to_alcotest prop_trace_round_trip;
          Alcotest.test_case "dropped events row" `Quick test_dropped_events_row;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick test_span_exception_safety;
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_records_nothing;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "disabled path allocates nothing" `Quick
            test_disabled_path_allocation;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "summary identical at 1 vs 4 jobs" `Quick
            test_deterministic_merge;
          Alcotest.test_case "merge is order-independent" `Quick
            test_report_merge_order_independent;
        ] );
      ( "export",
        [ Alcotest.test_case "chrome trace shape" `Quick test_chrome_trace_shape ] );
    ]
