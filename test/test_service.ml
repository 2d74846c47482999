(* Service-layer tests: wire schema round-trips, canonical digest
   collisions for permuted-equivalent requests, cache cold/warm
   equivalence, byte identity across job counts, the partial-failure
   protocol, a golden request-file -> response-file replay, and the
   [memx serve] binary driven end to end.

   Regenerating the golden responses (only when the wire format or the
   mapping semantics intentionally change):

     MCX_GOLDEN_REGEN=$PWD/test/golden dune exec test/test_service.exe
*)

open Mcx_util
open Mcx_service

(* A 3-input 2-output cover whose variables have pairwise-distinct
   (positive, complemented) occurrence signatures, so canonicalization
   assigns every relabeling of it the same digest. Optimum crossbar:
   5x10. *)
let pla_base = ".i 3\n.o 2\n11- 10\n1-0 01\n-00 11\n.e"

(* [pla_base] with x0 and x2 swapped — a different request body for the
   same mapping problem. *)
let pla_relabeled = ".i 3\n.o 2\n-11 10\n0-1 01\n00- 11\n.e"

(* [pla_base] with its product rows rotated. *)
let pla_rows_rotated = ".i 3\n.o 2\n-00 11\n11- 10\n1-0 01\n.e"

let request ?(id = "q") ?(defects = Wire.Pristine) ?(config = Wire.default_config)
    source =
  { Wire.id; source; defects; config }

let line req = Json_out.to_string (Wire.request_to_json req)

let mk_server ?(jobs = 2) ?cache_capacity () =
  Serve.create ~pool:(Pool.create ~jobs ()) ?cache_capacity ()

let serve_lines ?jobs ?cache_capacity lines =
  let t = mk_server ?jobs ?cache_capacity () in
  let responses, stats = Serve.serve_batch t ~label:"test" lines in
  (t, responses, stats)

(* --- wire schema ------------------------------------------------------ *)

let test_wire_round_trip () =
  let raw =
    {|{"schema":"mcx-request/1","id":"q1","pla":".i 2\n.o 1\n11 1\n.e",|}
    ^ {|"defects":{"seed":9,"open_rate":0.125,"closed_rate":0.5},|}
    ^ {|"config":{"algorithm":"exact","include_il_row":true,"verify":true,"deadline_ms":250}}|}
  in
  match Wire.request_of_line ~index:0 raw with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok req ->
    Alcotest.(check string) "id" "q1" req.Wire.id;
    Alcotest.(check bool) "verify" true req.Wire.config.Wire.verify;
    Alcotest.(check (option int)) "deadline" (Some 250) req.Wire.config.Wire.deadline_ms;
    (match req.Wire.defects with
    | Wire.Seeded { seed; open_rate; closed_rate } ->
      Alcotest.(check int) "seed" 9 seed;
      Alcotest.(check (float 0.)) "open_rate" 0.125 open_rate;
      Alcotest.(check (float 0.)) "closed_rate" 0.5 closed_rate
    | _ -> Alcotest.fail "expected seeded defects");
    (* to_json / of_line is a fixpoint: re-emitting the parsed request
       and parsing that re-emission yields the same serialization. *)
    let s1 = line req in
    (match Wire.request_of_line ~index:0 s1 with
    | Error e -> Alcotest.failf "re-parse failed: %s" e
    | Ok req2 -> Alcotest.(check string) "fixpoint" s1 (line req2))

let test_wire_defaults () =
  let raw = {|{"schema":"mcx-request/1","pla":".i 1\n.o 1\n1 1\n.e"}|} in
  match Wire.request_of_line ~index:7 raw with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok req ->
    Alcotest.(check string) "anonymous id from index" "#7" req.Wire.id;
    Alcotest.(check bool) "pristine" true (req.Wire.defects = Wire.Pristine);
    Alcotest.(check bool) "no verify" false req.Wire.config.Wire.verify;
    Alcotest.(check (option int)) "no deadline" None req.Wire.config.Wire.deadline_ms

let expect_parse_error raw fragment =
  match Wire.request_of_line ~index:3 raw with
  | Ok _ -> Alcotest.failf "expected a parse error for %s" raw
  | Error e ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "%S mentions %S" e fragment)
      true
      (contains e fragment && contains e "request 3")

let test_wire_rejects () =
  expect_parse_error "not json at all" "request 3";
  expect_parse_error {|{"schema":"mcx-request/9","pla":"x"}|} "schema";
  expect_parse_error {|{"schema":"mcx-request/1","id":"q"}|} "pla";
  expect_parse_error
    {|{"schema":"mcx-request/1","pla":"x","defects":{"rows":1}}|}
    "defects"

let test_response_field_order () =
  let r =
    {
      (Wire.response ~id:"a" Wire.Ok_mapped) with
      Wire.digest = Some "d";
      rows = Some 2;
      cols = Some 3;
      assignment = Some [| 1; 0 |];
      verified = Some true;
    }
  in
  Alcotest.(check string) "fixed field order"
    {|{"schema":"mcx-response/1","id":"a","status":"ok","digest":"d","rows":2,"cols":3,"assignment":[1,0],"verified":true}|}
    (Wire.response_to_line r);
  Alcotest.(check string) "error shape"
    {|{"schema":"mcx-response/1","id":"b","status":"error","error":"boom"}|}
    (Wire.response_to_line
       { (Wire.response ~id:"b" Wire.Failed) with Wire.error = Some "boom" })

(* --- canonical digests ------------------------------------------------ *)

let digest_of req = (Canonical.resolve req).Canonical.digest

let explicit_defects =
  Wire.Explicit { rows = 5; cols = 10; stuck_open = [ (0, 1) ]; stuck_closed = [ (4, 9) ] }

let test_digest_collision_relabeled () =
  Alcotest.(check string) "variable relabeling coalesces"
    (digest_of (request (`Pla pla_base)))
    (digest_of (request (`Pla pla_relabeled)))

let test_digest_collision_row_permuted () =
  (* Row permutations never move the (physical) defect map, so they
     coalesce even with explicit defects. *)
  Alcotest.(check string) "row permutation coalesces"
    (digest_of (request ~defects:explicit_defects (`Pla pla_base)))
    (digest_of (request ~defects:explicit_defects (`Pla pla_rows_rotated)))

let test_digest_separates_problems () =
  let d0 = digest_of (request (`Pla pla_base)) in
  let other = ".i 3\n.o 2\n11- 01\n1-0 01\n-00 11\n.e" in
  Alcotest.(check bool) "different outputs, different digest" false
    (String.equal d0 (digest_of (request (`Pla other))));
  Alcotest.(check bool) "defects change the digest" false
    (String.equal d0 (digest_of (request ~defects:explicit_defects (`Pla pla_base))));
  let verifying =
    { Wire.default_config with Wire.verify = true }
  in
  Alcotest.(check bool) "verify flag changes the digest" false
    (String.equal d0 (digest_of (request ~config:verifying (`Pla pla_base))));
  (* deadline_ms is a serving-time constraint, not part of the problem *)
  let deadlined =
    { Wire.default_config with Wire.deadline_ms = Some 10_000 }
  in
  Alcotest.(check string) "deadline does not change the digest" d0
    (digest_of (request ~config:deadlined (`Pla pla_base)))

let test_resolve_raises () =
  Alcotest.(check bool) "bad PLA raises Failure" true
    (match Canonical.resolve (request (`Pla ".i oops")) with
    | exception Failure _ -> true
    | _ -> false);
  Alcotest.(check bool) "unknown benchmark raises Failure" true
    (match Canonical.resolve (request (`Benchmark "no-such-cover")) with
    | exception Failure _ -> true
    | _ -> false);
  Alcotest.(check bool) "wrong defect dims raise Invalid_argument" true
    (match
       Canonical.resolve
         (request
            ~defects:
              (Wire.Explicit { rows = 1; cols = 1; stuck_open = []; stuck_closed = [] })
            (`Pla pla_base))
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- the dispatcher --------------------------------------------------- *)

let distinct_batch =
  [
    line (request ~id:"a" (`Pla pla_base));
    line (request ~id:"b" ~defects:explicit_defects (`Pla pla_base));
    line
      (request ~id:"c"
         ~defects:(Wire.Seeded { seed = 7; open_rate = 0.05; closed_rate = 0.0 })
         ~config:{ Wire.default_config with Wire.verify = true }
         (`Benchmark "rd53"));
  ]

let test_coalescing_within_batch () =
  let lines =
    [ line (request ~id:"x" (`Pla pla_base)); line (request ~id:"y" (`Pla pla_relabeled)) ]
  in
  let _, responses, stats = serve_lines lines in
  Alcotest.(check int) "one computed" 1 stats.Serve.misses;
  Alcotest.(check int) "one coalesced" 1 stats.Serve.coalesced;
  Alcotest.(check int) "no hits on a cold cache" 0 stats.Serve.hits;
  match responses with
  | [ ra; rb ] ->
    let digest_of_line l =
      match Json_out.of_string l with
      | Ok json -> Option.bind (Json_out.member "digest" json) Json_out.to_string_opt
      | Error _ -> None
    in
    Alcotest.(check bool) "both answered with the same digest" true
      (Option.is_some (digest_of_line ra) && digest_of_line ra = digest_of_line rb)
  | _ -> Alcotest.fail "expected two responses"

let test_warm_equals_cold () =
  let t = mk_server () in
  let cold, s_cold = Serve.serve_batch t ~label:"cold" distinct_batch in
  let warm, s_warm = Serve.serve_batch t ~label:"warm" distinct_batch in
  Alcotest.(check (list string)) "cached replay is byte-identical" cold warm;
  Alcotest.(check int) "cold batch computes everything" 3 s_cold.Serve.misses;
  Alcotest.(check int) "warm batch hits everything" 3 s_warm.Serve.hits;
  Alcotest.(check int) "warm batch computes nothing" 0 s_warm.Serve.misses;
  (* A fresh server (fresh cache) agrees byte for byte. *)
  let _, fresh, _ = serve_lines distinct_batch in
  Alcotest.(check (list string)) "fresh server agrees" cold fresh

let test_uncacheable_when_capacity_zero () =
  let t = mk_server ~cache_capacity:0 () in
  let cold, _ = Serve.serve_batch t ~label:"b1" distinct_batch in
  let again, s2 = Serve.serve_batch t ~label:"b2" distinct_batch in
  Alcotest.(check int) "no hits without a cache" 0 s2.Serve.hits;
  Alcotest.(check (list string)) "responses identical regardless" cold again

let mixed_batch =
  distinct_batch
  @ [
      "this is not json";
      line (request ~id:"bad-pla" (`Pla ".i oops"));
      line (request ~id:"nope" (`Benchmark "no-such-cover"));
      line
        (request ~id:"late"
           ~config:{ Wire.default_config with Wire.deadline_ms = Some 0 }
           (`Pla pla_base));
    ]

let test_jobs_byte_identity () =
  let _, r1, _ = serve_lines ~jobs:1 mixed_batch in
  let _, r4, _ = serve_lines ~jobs:4 mixed_batch in
  Alcotest.(check (list string)) "MCX_JOBS=1 and 4 agree byte for byte" r1 r4

let status_of_line l =
  match Json_out.of_string l with
  | Ok json ->
    Option.value ~default:"?"
      (Option.bind (Json_out.member "status" json) Json_out.to_string_opt)
  | Error _ -> "?"

let test_partial_failure_protocol () =
  let t, responses, stats = serve_lines mixed_batch in
  Alcotest.(check int) "every request answered" (List.length mixed_batch)
    (List.length responses);
  Alcotest.(check (list string)) "statuses in request order"
    [ "ok"; "ok"; "ok"; "error"; "error"; "error"; "deadline" ]
    (List.map status_of_line responses);
  Alcotest.(check int) "batch error count" 3 stats.Serve.errors;
  Alcotest.(check int) "server error count" 3 (Serve.error_count t);
  Alcotest.(check int) "partial results exit with 4" 4 (Serve.exit_code t);
  List.iter
    (fun l ->
      if String.equal (status_of_line l) "error" then
        match Json_out.of_string l with
        | Ok json ->
          Alcotest.(check bool) "error responses carry a message" true
            (Option.is_some (Json_out.member "error" json))
        | Error e -> Alcotest.failf "unparseable response %s: %s" l e)
    responses

(* Resolve and compute are deterministic, so a raising request is not
   retried: each parsed request is canonicalized exactly once. *)
let test_failures_not_retried () =
  Telemetry.reset ();
  Telemetry.enable ();
  let _, responses, _ =
    Fun.protect ~finally:Telemetry.disable (fun () ->
        serve_lines
          [ line (request ~id:"bad" (`Pla ".i oops")); line (request ~id:"good" (`Pla pla_base)) ])
  in
  let snap = Telemetry.snapshot () in
  Telemetry.reset ();
  Alcotest.(check (list string)) "statuses" [ "error"; "ok" ] (List.map status_of_line responses);
  let canonicalized =
    Option.fold ~none:0 ~some:(fun (h : Telemetry.Snapshot.hist) -> h.count)
      (List.assoc_opt "serve.canonicalize" (Telemetry.Snapshot.spans snap))
  in
  Alcotest.(check int) "one canonicalize per parsed request" 2 canonicalized;
  Alcotest.(check (option int)) "no retries" None
    (List.assoc_opt "pool.trial.retried" (Telemetry.Snapshot.counters snap))

let test_clean_batch_exits_zero () =
  let t, _, stats = serve_lines distinct_batch in
  Alcotest.(check int) "no errors" 0 stats.Serve.errors;
  Alcotest.(check int) "exit 0" 0 (Serve.exit_code t)

let test_stats_json_shape () =
  let t = mk_server () in
  let _ = Serve.serve_batch t ~label:"b1" distinct_batch in
  let _ = Serve.serve_batch t ~label:"b2" distinct_batch in
  let json = Serve.stats_json t in
  let str path = Option.bind path Json_out.to_string_opt in
  let num path = Option.bind path Json_out.to_float_opt in
  Alcotest.(check (option string)) "schema" (Some "mcx-serve-stats/1")
    (str (Json_out.member "schema" json));
  Alcotest.(check (option (float 0.))) "requests" (Some 6.)
    (num (Json_out.member "requests" json));
  let cache = Json_out.member "cache" json in
  Alcotest.(check (option (float 0.))) "cache hits" (Some 3.)
    (num (Option.bind cache (Json_out.member "hits")));
  Alcotest.(check (option (float 0.))) "hit rate over both batches" (Some 0.5)
    (num (Option.bind cache (Json_out.member "hit_rate")));
  match Option.bind (Json_out.member "batches" json) Json_out.to_list_opt with
  | Some [ b1; b2 ] ->
    Alcotest.(check (option string)) "batch labels" (Some "b1")
      (str (Json_out.member "label" b1));
    Alcotest.(check (option (float 0.))) "warm batch hit rate" (Some 1.)
      (num (Json_out.member "hit_rate" b2))
  | _ -> Alcotest.fail "expected two batch rows"

(* Serve verifies symbolically only up to 16 inputs; a wider request is
   still mapped and answered, without a [verified] member. *)
let test_wide_verify_unchecked () =
  let _, responses, _ =
    serve_lines
      [ {|{"schema":"mcx-request/1","id":"wide","benchmark":"cordic","config":{"verify":true}}|} ]
  in
  match responses with
  | [ r ] -> (
    Alcotest.(check string) "status" "ok" (status_of_line r);
    match Json_out.of_string r with
    | Ok json ->
      Alcotest.(check bool) "no verified member" true
        (Option.is_none (Json_out.member "verified" json))
    | Error e -> Alcotest.failf "unparseable response %s: %s" r e)
  | _ -> Alcotest.fail "expected one response"

(* --- golden replay ---------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let read_request_lines path =
  String.split_on_char '\n' (read_file path)
  |> List.filter (fun l -> not (String.equal (String.trim l) ""))

let golden_requests = Filename.concat "golden" "serve_requests.jsonl"
let golden_responses = Filename.concat "golden" "serve_responses.golden"

let serve_golden () =
  let _, responses, _ = serve_lines ~jobs:2 (read_request_lines golden_requests) in
  String.concat "" (List.map (fun l -> l ^ "\n") responses)

let test_golden_replay () =
  let expected = read_file golden_responses in
  let actual = serve_golden () in
  if not (String.equal expected actual) then begin
    write_file "serve_responses.actual" actual;
    Alcotest.failf
      "serve output drifted from %s (actual written to serve_responses.actual); if \
       the change is intentional, regenerate with MCX_GOLDEN_REGEN"
      golden_responses
  end

(* --- access log ------------------------------------------------------- *)

let serve_with_access ?(jobs = 2) lines =
  let acc = ref [] in
  let t =
    Serve.create ~pool:(Pool.create ~jobs ())
      ~on_access:(fun r -> acc := r :: !acc)
      ()
  in
  let responses, _ = Serve.serve_batch t ~label:"access" lines in
  (responses, List.rev !acc)

let digest_of_line l =
  match Json_out.of_string l with
  | Ok json -> Option.bind (Json_out.member "digest" json) Json_out.to_string_opt
  | Error _ -> None

let test_access_log_replay () =
  let lines = read_request_lines golden_requests in
  let responses, records = serve_with_access lines in
  Alcotest.(check int) "one record per request" (List.length lines)
    (List.length records);
  List.iteri
    (fun i (r : Access_log.record) ->
      Alcotest.(check int) "records arrive in index order" i r.Access_log.index)
    records;
  Alcotest.(check (list string)) "cache outcomes"
    [ "miss"; "coalesced"; "miss"; "miss"; "miss"; "miss"; "none"; "none" ]
    (List.map
       (fun (r : Access_log.record) -> Access_log.cache_outcome_to_string r.Access_log.cache)
       records);
  List.iter2
    (fun resp (r : Access_log.record) ->
      Alcotest.(check string) "status matches the response" (status_of_line resp)
        r.Access_log.status;
      Alcotest.(check (option string)) "digest matches the response"
        (digest_of_line resp) r.Access_log.digest;
      Alcotest.(check int) "bytes = rendered length" (String.length resp)
        r.Access_log.bytes)
    responses records;
  (* The deterministic projection of the first record is fully pinned by
     the golden stream — this doubles as the field-order assertion. *)
  let first = List.hd records in
  Alcotest.(check string) "fixed field order"
    (Printf.sprintf
       {|{"schema":"mcx-access/1","index":0,"id":"inline-pristine","source":"pla","digest":"%s","cache":"miss","status":"ok","bytes":%d}|}
       (Option.get first.Access_log.digest)
       (String.length (List.hd responses)))
    (Access_log.to_line ~times:false first);
  (* to_line/of_line is a round trip, durations included. *)
  List.iter
    (fun (r : Access_log.record) ->
      match Access_log.of_line (Access_log.to_line ~times:true r) with
      | Ok r2 -> Alcotest.(check bool) "round trip" true (r = r2)
      | Error e -> Alcotest.failf "re-parse failed: %s" e)
    records;
  (* has_times distinguishes the two projections. *)
  Alcotest.(check bool) "timed record has times" true
    (Access_log.has_times (Access_log.to_json ~times:true first));
  Alcotest.(check bool) "projected record has none" false
    (Access_log.has_times (Access_log.to_json ~times:false first))

let test_access_jobs_identity () =
  let lines = read_request_lines golden_requests in
  let project records =
    List.map (Access_log.to_line ~times:false) records
  in
  let _, r1 = serve_with_access ~jobs:1 lines in
  let _, r4 = serve_with_access ~jobs:4 lines in
  Alcotest.(check (list string)) "deterministic projection agrees across jobs"
    (project r1) (project r4)

(* --- the memx serve binary ---------------------------------------------- *)

(* Byte identity across job counts, warm = cold and the partial-failure
   statuses are asserted in-process above ("jobs 1 = jobs 4", "warm =
   cold", "partial failure"); these cases pin what only the binary does:
   two [--in] batches through one server process, the stats file and the
   exit status. *)

let bundled_requests = "../examples/serve_requests.jsonl"

let json_of_file path =
  match Json_out.of_string (read_file path) with
  | Ok json -> json
  | Error e -> Alcotest.failf "%s: %s" path e

let rec json_path json = function
  | [] -> Some json
  | key :: rest -> Option.bind (Json_out.member key json) (fun j -> json_path j rest)

let str_at json path = Option.bind (json_path json path) Json_out.to_string_opt
let num_at json path = Option.bind (json_path json path) Json_out.to_float_opt

let test_binary_replay () =
  Memx_run.run_memx ~stderr_path:"smoke_serve.err"
    [
      "serve"; "--in"; bundled_requests; "--in"; bundled_requests; "-o";
      "smoke_responses.jsonl"; "--stats"; "smoke_stats.json";
    ];
  let n = List.length (read_request_lines bundled_requests) in
  let responses = read_request_lines "smoke_responses.jsonl" in
  Alcotest.(check int) "two batches of responses" (2 * n) (List.length responses);
  let first = List.filteri (fun i _ -> i < n) responses in
  Alcotest.(check (list string)) "the second batch repeats the first byte for byte" first
    (List.filteri (fun i _ -> i >= n) responses);
  List.iter
    (fun l ->
      match Json_out.of_string l with
      | Error e -> Alcotest.failf "unparseable response %s: %s" l e
      | Ok json ->
        Alcotest.(check (option string)) "response schema" (Some "mcx-response/1")
          (str_at json [ "schema" ]);
        Alcotest.(check bool) ("ok or infeasible: " ^ l) true
          (List.mem (status_of_line l) [ "ok"; "infeasible" ]);
        Alcotest.(check bool) ("has a digest: " ^ l) true
          (Option.is_some (str_at json [ "digest" ])))
    first;
  let stats = json_of_file "smoke_stats.json" in
  Alcotest.(check (option string)) "stats schema" (Some "mcx-serve-stats/1")
    (str_at stats [ "schema" ]);
  Alcotest.(check (option string)) "config snapshot schema" (Some "mcx-config/1")
    (str_at stats [ "config"; "schema" ]);
  Alcotest.(check bool) "cache hits" true
    (Option.value ~default:0. (num_at stats [ "cache"; "hits" ]) > 0.);
  match Option.bind (json_path stats [ "batches" ]) Json_out.to_list_opt with
  | Some [ cold; warm ] ->
    Alcotest.(check bool) "warm batch hit rate >= 0.9" true
      (Option.value ~default:0. (num_at warm [ "hit_rate" ]) >= 0.9);
    let elapsed b = Option.value ~default:Float.nan (num_at b [ "elapsed_ns" ]) in
    Alcotest.(check bool)
      (Printf.sprintf "warm batch (%.0f ns) faster than cold (%.0f ns)" (elapsed warm)
         (elapsed cold))
      true
      (elapsed warm < elapsed cold)
  | _ -> Alcotest.fail "expected two batch rows"

let test_binary_bad_line () =
  write_file "smoke_bad.jsonl"
    ({|{"schema":"mcx-request/1","id":"good","benchmark":"rd53"}|} ^ "\n"
   ^ {|{"schema":"mcx-request/1","id":"bad","pla":".i oops"}|} ^ "\n");
  Memx_run.run_memx ~status:4 ~stderr_path:"smoke_bad.err"
    [ "serve"; "--in"; "smoke_bad.jsonl"; "-o"; "smoke_bad_out.jsonl" ];
  let responses = read_request_lines "smoke_bad_out.jsonl" in
  Alcotest.(check (list string)) "statuses" [ "ok"; "error" ] (List.map status_of_line responses);
  match Json_out.of_string (List.nth responses 1) with
  | Ok json ->
    Alcotest.(check bool) "the error carries a message" true
      (Option.fold ~none:false ~some:(fun e -> String.length e > 0) (str_at json [ "error" ]))
  | Error e -> Alcotest.failf "unparseable error response: %s" e

(* Two replays of one stream through the binary, then [memx report] over
   their artifacts: an access log rendered with its metrics snapshot, and
   the A/B gate between the two logs. The logs are on the deterministic
   projection (MCX_TRACE_TIMES=0), so they carry no durations and the
   diff compares counts and cache outcomes only; both must exit 0. The
   latency-regression path is "report diff" below. *)
let test_binary_report () =
  let serve k =
    let file suffix = Printf.sprintf "smoke_ab%d%s" k suffix in
    Memx_run.run_memx ~env:[ "MCX_JOBS=2" ] ~stderr_path:(file ".err")
      [
        "serve"; "--in"; bundled_requests; "-o"; file "_resp.jsonl"; "--access-log";
        file ".jsonl"; "--metrics-json"; file "_metrics.json";
      ];
    file ".jsonl"
  in
  let a = serve 1 and b = serve 2 in
  Memx_run.run_memx ~stdout_path:"smoke_report.out" ~stderr_path:"smoke_report.err"
    [ "report"; "--access"; a; "--metrics"; "smoke_ab1_metrics.json" ];
  Alcotest.(check bool) "renders both documents" true
    (let out = read_file "smoke_report.out" in
     Memx_run.contains out ("== " ^ a ^ " ==")
     && Memx_run.contains out "== smoke_ab1_metrics.json ==");
  Memx_run.run_memx ~stdout_path:"smoke_diff.out" ~stderr_path:"smoke_diff.err"
    [ "report"; "--diff"; a ^ "," ^ b; "--threshold"; "4.0" ];
  Alcotest.(check bool) "two replays agree" true
    (Memx_run.contains (read_file "smoke_diff.out") "no mismatches, no regressions")

(* --- memx report ------------------------------------------------------- *)

let timed_record ~index ~compute_ns ~render_ns =
  {
    Access_log.index;
    id = Printf.sprintf "r%d" index;
    source = "pla";
    digest = Some "d";
    cache = Access_log.Miss;
    status = "ok";
    bytes = 100;
    parse_ns = 1_000L;
    resolve_ns = 2_000L;
    compute_ns;
    render_ns;
  }

let timed_summary ~source ~compute_ns ~render_ns =
  Report.summarize ~source
    (List.init 10 (fun i -> timed_record ~index:i ~compute_ns ~render_ns))
    ~has_times:true

let test_report_summarize () =
  let lines = read_request_lines golden_requests in
  let responses, records = serve_with_access lines in
  let s = Report.summarize ~source:"replay" records ~has_times:false in
  Alcotest.(check int) "records" (List.length lines) s.Report.records;
  Alcotest.(check (list (pair string int))) "cache breakdown"
    [ ("coalesced", 1); ("miss", 5); ("none", 2) ]
    s.Report.by_cache;
  Alcotest.(check int) "bytes total"
    (List.fold_left (fun n l -> n + String.length l) 0 responses)
    s.Report.bytes_total;
  Alcotest.(check int) "error count in by_status" 2
    (Option.value ~default:0 (List.assoc_opt "error" s.Report.by_status));
  Alcotest.(check int) "untimed summary renders one table" 1
    (List.length (Report.access_tables s));
  let timed = timed_summary ~source:"t" ~compute_ns:10_000_000L ~render_ns:500L in
  Alcotest.(check int) "timed summary adds the latency table" 2
    (List.length (Report.access_tables timed));
  let compute =
    List.find (fun (st : Report.stage_stat) -> st.Report.stage = "compute")
      timed.Report.stages
  in
  Alcotest.(check int64) "stage total" 100_000_000L compute.Report.total_ns;
  Alcotest.(check int64) "stage mean" 10_000_000L compute.Report.mean_ns

(* Stage percentiles are order statistics of the raw durations: with 21
   records p50 is the 11th smallest and p95 the 20th (no interpolation
   between neighbours), and neither exceeds the max. *)
let test_report_stage_percentiles () =
  let records =
    List.init 21 (fun i ->
        timed_record ~index:i
          ~compute_ns:(Int64.of_int ((((i * 8) mod 21) + 1) * 1000))
          ~render_ns:500L)
  in
  let s = Report.summarize ~source:"p" records ~has_times:true in
  let compute =
    List.find (fun (st : Report.stage_stat) -> st.Report.stage = "compute") s.Report.stages
  in
  Alcotest.(check int64) "p50 is the 11th smallest" 11_000L compute.Report.p50_ns;
  Alcotest.(check int64) "p95 is the 20th smallest" 20_000L compute.Report.p95_ns;
  Alcotest.(check int64) "max" 21_000L compute.Report.max_ns;
  Alcotest.(check bool) "p95 <= max" true
    (Int64.compare compute.Report.p95_ns compute.Report.max_ns <= 0)

let test_report_diff () =
  let old_timed = timed_summary ~source:"old" ~compute_ns:10_000_000L ~render_ns:500L in
  Alcotest.(check int) "identical runs produce no findings" 0
    (List.length (Report.diff old_timed old_timed));
  (* 10x slower compute (total 1s, far above the noise floor) regresses;
     render also grew 10x but stays under min_total_ns and is ignored. *)
  let new_timed =
    timed_summary ~source:"new" ~compute_ns:100_000_000L ~render_ns:5_000L
  in
  (match Report.diff old_timed new_timed with
  | [ f ] ->
    Alcotest.(check bool) "regression severity" true (f.Report.severity = `Regression);
    Alcotest.(check bool) "names the compute stage" true
      (let what = f.Report.what in
       let n = String.length "compute" in
       let rec go i =
         i + n <= String.length what && (String.sub what i n = "compute" || go (i + 1))
       in
       go 0)
  | fs -> Alcotest.failf "expected exactly one regression, got %d findings" (List.length fs));
  Alcotest.(check int) "a looser threshold accepts the 10x" 0
    (List.length (Report.diff ~threshold:20.0 old_timed new_timed));
  (* Deterministic-field drift is a mismatch regardless of timing. *)
  let lines = read_request_lines golden_requests in
  let _, records = serve_with_access lines in
  let full = Report.summarize ~source:"full" records ~has_times:false in
  let truncated =
    Report.summarize ~source:"cut"
      (List.filteri (fun i _ -> i < 5) records)
      ~has_times:false
  in
  let findings = Report.diff full truncated in
  Alcotest.(check bool) "count drift is a mismatch" true
    (List.exists (fun (f : Report.finding) -> f.Report.severity = `Mismatch) findings);
  Alcotest.(check bool) "no latency findings without timing" true
    (List.for_all (fun (f : Report.finding) -> f.Report.severity = `Mismatch) findings)

let test_report_load_access () =
  let lines = read_request_lines golden_requests in
  let _, records = serve_with_access lines in
  let path = Filename.temp_file "mcx_access" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path
        (String.concat ""
           (List.map (fun r -> Access_log.to_line ~times:true r ^ "\n") records)
        ^ "\n");
      (match Report.load_access path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok s ->
        Alcotest.(check int) "all records loaded" (List.length records) s.Report.records;
        Alcotest.(check bool) "timing detected" true s.Report.has_times);
      write_file path
        (Access_log.to_line ~times:true (List.hd records) ^ "\nnot json\n");
      match Report.load_access path with
      | Ok _ -> Alcotest.fail "expected a load error"
      | Error e ->
        let contains needle =
          let n = String.length needle and h = String.length e in
          let rec go i = i + n <= h && (String.sub e i n = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "error cites the line number" true (contains ":2:"))

let () =
  match Mcx_util.Config.golden_regen () with
  | Some dir ->
    let path = Filename.concat dir "serve_responses.golden" in
    write_file path (serve_golden ());
    Printf.printf "wrote %s\n%!" path
  | None ->
    Alcotest.run "service"
      [
        ( "wire",
          [
            Alcotest.test_case "request round-trip" `Quick test_wire_round_trip;
            Alcotest.test_case "defaults" `Quick test_wire_defaults;
            Alcotest.test_case "malformed requests" `Quick test_wire_rejects;
            Alcotest.test_case "response field order" `Quick test_response_field_order;
          ] );
        ( "canonical",
          [
            Alcotest.test_case "relabeled vars collide" `Quick
              test_digest_collision_relabeled;
            Alcotest.test_case "permuted rows collide" `Quick
              test_digest_collision_row_permuted;
            Alcotest.test_case "distinct problems separate" `Quick
              test_digest_separates_problems;
            Alcotest.test_case "invalid requests raise" `Quick test_resolve_raises;
          ] );
        ( "dispatch",
          [
            Alcotest.test_case "within-batch coalescing" `Quick
              test_coalescing_within_batch;
            Alcotest.test_case "warm = cold" `Quick test_warm_equals_cold;
            Alcotest.test_case "capacity-0 cache" `Quick
              test_uncacheable_when_capacity_zero;
            Alcotest.test_case "jobs 1 = jobs 4" `Quick test_jobs_byte_identity;
            Alcotest.test_case "partial failure" `Quick test_partial_failure_protocol;
            Alcotest.test_case "failures not retried" `Quick test_failures_not_retried;
            Alcotest.test_case "clean exit" `Quick test_clean_batch_exits_zero;
            Alcotest.test_case "stats document" `Quick test_stats_json_shape;
            Alcotest.test_case "wide verify unchecked" `Quick test_wide_verify_unchecked;
          ] );
        ("golden", [ Alcotest.test_case "request replay" `Quick test_golden_replay ]);
        ( "binary",
          [
            Alcotest.test_case "two-batch replay" `Quick test_binary_replay;
            Alcotest.test_case "bad line exits 4" `Quick test_binary_bad_line;
            Alcotest.test_case "report and A/B diff" `Quick test_binary_report;
          ] );
        ( "access",
          [
            Alcotest.test_case "structured replay" `Quick test_access_log_replay;
            Alcotest.test_case "jobs 1 = jobs 4 projection" `Quick
              test_access_jobs_identity;
          ] );
        ( "report",
          [
            Alcotest.test_case "summarize" `Quick test_report_summarize;
            Alcotest.test_case "stage percentiles" `Quick test_report_stage_percentiles;
            Alcotest.test_case "diff" `Quick test_report_diff;
            Alcotest.test_case "load access log" `Quick test_report_load_access;
          ] );
      ]
