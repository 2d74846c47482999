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

(* --- histogram geometry --------------------------------------------- *)

let test_bucket_boundaries () =
  Alcotest.(check int) "0ns" 0 (Telemetry.bucket_of_ns 0L);
  Alcotest.(check int) "1ns" 0 (Telemetry.bucket_of_ns 1L);
  Alcotest.(check int) "2ns" 1 (Telemetry.bucket_of_ns 2L);
  Alcotest.(check int) "3ns" 1 (Telemetry.bucket_of_ns 3L);
  Alcotest.(check int) "4ns" 2 (Telemetry.bucket_of_ns 4L);
  Alcotest.(check int) "1024ns" 10 (Telemetry.bucket_of_ns 1024L);
  (* every bucket's inclusive bounds map back to the bucket *)
  for i = 0 to 61 do
    let lo, hi = Telemetry.bucket_bounds i in
    Alcotest.(check int) (Printf.sprintf "lo of %d" i) i (Telemetry.bucket_of_ns lo);
    Alcotest.(check int)
      (Printf.sprintf "hi-1 of %d" i)
      i
      (Telemetry.bucket_of_ns (Int64.sub hi 1L))
  done;
  let lo, _ = Telemetry.bucket_bounds 1 in
  Alcotest.(check int64) "bucket 1 starts at 2" 2L lo;
  let _, hi = Telemetry.bucket_bounds (Telemetry.n_buckets - 1) in
  Alcotest.(check int64) "last bucket is open-ended" Int64.max_int hi;
  Alcotest.check_raises "negative bucket" (Invalid_argument "Telemetry.bucket_bounds")
    (fun () -> ignore (Telemetry.bucket_bounds (-1)))

(* A histogram fixture from (observation, how many) pairs, with the
   count, sum, min and max those observations imply. *)
let hist_of observations =
  let buckets = Array.make Telemetry.n_buckets 0 in
  List.iter
    (fun (ns, n) ->
      let i = Telemetry.bucket_of_ns ns in
      buckets.(i) <- buckets.(i) + n)
    observations;
  let values = List.map fst observations in
  {
    Telemetry.Snapshot.count = List.fold_left (fun acc (_, n) -> acc + n) 0 observations;
    sum_ns =
      List.fold_left (fun acc (ns, n) -> Int64.add acc (Int64.mul ns (Int64.of_int n))) 0L
        observations;
    min_ns = List.fold_left Int64.min Int64.max_int values;
    max_ns = List.fold_left Int64.max 0L values;
    buckets;
  }

let test_percentiles () =
  (* 100 calls at 12ns (bucket [8,16)) plus one outlier at 1000ns
     (bucket [512,1024)) *)
  let stat = hist_of [ (12L, 100); (1000L, 1) ] in
  Alcotest.(check int64) "p50 upper edge of bucket 3" 15L
    (Telemetry.Snapshot.percentile_ns stat ~p:0.50);
  Alcotest.(check int64) "p99 still bucket 3" 15L
    (Telemetry.Snapshot.percentile_ns stat ~p:0.99);
  Alcotest.(check int64) "p100 is the outlier, not its bucket edge" 1000L
    (Telemetry.Snapshot.percentile_ns stat ~p:1.0);
  let empty = hist_of [] in
  Alcotest.(check int64) "no calls" 0L (Telemetry.Snapshot.percentile_ns empty ~p:0.5);
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Telemetry.Snapshot.percentile_ns") (fun () ->
      ignore (Telemetry.Snapshot.percentile_ns stat ~p:0.))

(* --- spans and counters --------------------------------------------- *)

let find_span report name = List.assoc_opt name (Telemetry.Snapshot.spans report)

(* A lone 9.76 s observation sits in bucket [2^33, 2^34) ns, whose upper
   edge is 17.18 s: the summary must print the observed value instead. *)
let test_single_observation_percentiles () =
  fresh ();
  Telemetry.enable ();
  Telemetry.observe_ns "t.long" 9_760_000_000L;
  let report = Telemetry.snapshot () in
  Telemetry.disable ();
  (match find_span report "t.long" with
  | Some h ->
    Alcotest.(check int64) "max is the observation" 9_760_000_000L
      h.Telemetry.Snapshot.max_ns;
    Alcotest.(check int64) "p50 = max" h.Telemetry.Snapshot.max_ns
      (Telemetry.Snapshot.percentile_ns h ~p:0.50);
    Alcotest.(check int64) "p99 = max" h.Telemetry.Snapshot.max_ns
      (Telemetry.Snapshot.percentile_ns h ~p:0.99)
  | None -> Alcotest.fail "span missing");
  let summary = Texttable.render (Telemetry.Snapshot.summary_table report) in
  Alcotest.(check bool) "no bucket edge in the summary" false
    (contains ~affix:"17.18s" summary)

let prop_percentiles_within_observed =
  QCheck2.Test.make ~name:"min <= p50 <= p99 <= max" ~count:300
    QCheck2.Gen.(
      list_size (int_range 1 60)
        (map Int64.of_int (oneof [ int_range 0 5000; int_range 0 20_000_000_000 ])))
    (fun observations ->
      fresh ();
      Telemetry.enable ();
      List.iter (Telemetry.observe_ns "t.prop") observations;
      let report = Telemetry.snapshot () in
      Telemetry.disable ();
      match find_span report "t.prop" with
      | None -> false
      | Some h ->
        let p50 = Telemetry.Snapshot.percentile_ns h ~p:0.50
        and p99 = Telemetry.Snapshot.percentile_ns h ~p:0.99 in
        h.Telemetry.Snapshot.min_ns = List.fold_left Int64.min Int64.max_int observations
        && h.Telemetry.Snapshot.max_ns = List.fold_left Int64.max 0L observations
        && Int64.compare h.Telemetry.Snapshot.min_ns p50 <= 0
        && Int64.compare p50 p99 <= 0
        && Int64.compare p99 h.Telemetry.Snapshot.max_ns <= 0)

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
    match find_span report name with Some s -> s.Telemetry.Snapshot.count | None -> 0
  in
  Alcotest.(check int) "outer once" 1 (calls "t.outer");
  Alcotest.(check int) "inner twice" 2 (calls "t.inner");
  (match find_span report "t.inner" with
  | Some s ->
    Alcotest.(check int) "histogram holds every call" 2
      (Array.fold_left ( + ) 0 s.Telemetry.Snapshot.buckets);
    Alcotest.(check bool) "total >= max" true
      (Int64.compare s.Telemetry.Snapshot.sum_ns s.Telemetry.Snapshot.max_ns >= 0)
  | None -> Alcotest.fail "inner span missing")

let test_span_exception_safety () =
  fresh ();
  Telemetry.enable ();
  (try Telemetry.span "t.raises" (fun () -> raise Exit) with Exit -> ());
  let report = Telemetry.snapshot () in
  (match find_span report "t.raises" with
  | Some s -> Alcotest.(check int) "recorded despite raise" 1 s.Telemetry.Snapshot.count
  | None -> Alcotest.fail "span lost on exception")

let test_disabled_records_nothing () =
  fresh ();
  Alcotest.(check bool) "disabled" false (Telemetry.enabled ());
  let v = Telemetry.span "t.off" (fun () -> 7) in
  Alcotest.(check int) "span passes through" 7 v;
  Telemetry.count "t.off_counter";
  Telemetry.observe_ns "t.off_obs" 5L;
  let report = Telemetry.snapshot () in
  Alcotest.(check bool) "no span" true (find_span report "t.off" = None);
  Alcotest.(check bool) "no counter" true
    (List.assoc_opt "t.off_counter" (Telemetry.Snapshot.counters report) = None)

let test_counters_and_observe () =
  fresh ();
  Telemetry.enable ();
  Telemetry.count "t.c";
  Telemetry.count ~n:41 "t.c";
  Telemetry.observe_ns "t.obs" 10L;
  Telemetry.observe_ns "t.obs" (-5L);
  (* clamps to 0 *)
  let report = Telemetry.snapshot () in
  Alcotest.(check (option int)) "counter sums" (Some 42)
    (List.assoc_opt "t.c" (Telemetry.Snapshot.counters report));
  match find_span report "t.obs" with
  | Some s ->
    Alcotest.(check int) "observe counts calls" 2 s.Telemetry.Snapshot.count;
    Alcotest.(check int64) "negative clamped" 10L s.Telemetry.Snapshot.sum_ns;
    Alcotest.(check int64) "min sees the clamped 0" 0L s.Telemetry.Snapshot.min_ns
  | None -> Alcotest.fail "observe_ns aggregate missing"

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
  no_alloc "observe_ns" (fun () ->
      for _ = 1 to calls do
        Telemetry.observe_ns name 5L
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
  | Some s -> Alcotest.(check int) "span calls sum" 2 s.Telemetry.Snapshot.count
  | None -> Alcotest.fail "merged span missing"

(* --- chrome trace export -------------------------------------------- *)

let test_chrome_trace_shape () =
  fresh ();
  Telemetry.enable ~events:true ();
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
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "single observation: p50 = p99 = max" `Quick
            test_single_observation_percentiles;
          QCheck_alcotest.to_alcotest prop_percentiles_within_observed;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick test_span_exception_safety;
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_records_nothing;
          Alcotest.test_case "counters and observe_ns" `Quick test_counters_and_observe;
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
