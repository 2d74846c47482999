(* The telemetry store as its two renderers show it: summaries and
   trace counters that do not depend on the job count, the summary's
   deterministic [~times:false] projection, a traced experiment, its
   summary reprinted by [memx report --trace-file], a trace path that
   cannot be written, and byte goldens of memx's observability output. *)

open Mcx_util

(* Every test starts from a clean, enabled store. The whole binary is
   single-threaded between Pool fan-outs, so reset is safe here. *)
let fresh () =
  Telemetry.reset ();
  Telemetry.enable ()

let render ?times snap = Texttable.render (Telemetry.Snapshot.summary_table ?times snap)

(* --- determinism across job counts ------------------------------------ *)

(* Deterministic per-index work recorded from inside Pool workers: the
   keyed merge must make both renderings identical whatever the domain
   count. *)
let record_from_pool ~jobs =
  fresh ();
  let pool = Pool.create ~jobs () in
  let _ =
    Pool.map pool 40 (fun i ->
        Telemetry.span "test.trial" (fun () ->
            Telemetry.count (if i mod 3 = 0 then "test.rows.small" else "test.rows.large");
            i))
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
    (trace_counters s1)

(* --- the times projection ----------------------------------------------- *)

let test_projection_drops_measurements () =
  fresh ();
  Telemetry.span "test.stage" ignore;
  Telemetry.span "test.stage" ignore;
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

(* [memx report --trace-file] reprints the summary a traced run printed
   at exit, byte for byte, under either MCX_TRACE_TIMES projection. *)
let test_report_reprints_summary () =
  List.iter
    (fun (tag, times) ->
      let file name = Printf.sprintf "reprint_%s.%s" tag name in
      let env = [ "MCX_TRACE_TIMES=" ^ times ] in
      run_memx ~env ~stderr_path:(file "err")
        [ "experiment"; "yield"; "--samples"; "4"; "--trace"; file "json" ];
      let err = read_file (file "err") in
      let summary =
        match String.index_opt err '\n' with
        | Some i -> String.sub err (i + 1) (String.length err - i - 1)
        | None -> Alcotest.fail "no summary on stderr"
      in
      Alcotest.(check bool) ("summary has rows: " ^ tag) true (contains summary "| hybrid.map");
      run_memx ~env ~stdout_path:(file "out") ~stderr_path:(file "report.err")
        [ "report"; "--trace-file"; file "json" ];
      Alcotest.(check string) ("reprinted summary: " ^ tag)
        (Printf.sprintf "== %s ==\n%s\n" (file "json") summary)
        (read_file (file "out")))
    [ ("timed", ""); ("projected", "0") ]

(* A file that is not a trace: exit 1 naming the file. *)
let test_report_refuses_non_trace () =
  List.iter
    (fun (path, contents) ->
      write_file path contents;
      run_memx ~status:1 ~stderr_path:"non_trace.err" [ "report"; "--trace-file"; path ];
      let err = read_file "non_trace.err" in
      Alcotest.(check bool) ("names the file: " ^ err) true (contains err ("memx report: " ^ path)))
    [ ("non_trace.json", {|{"traceEvents":[]}|}); ("non_json.txt", "not json\n") ]

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
          ( "experiment trace",
            [
              Alcotest.test_case "stdout unchanged by --trace" `Quick test_trace_keeps_stdout;
              Alcotest.test_case "unwritable path fails first" `Quick test_unwritable_trace;
              Alcotest.test_case "report reprints the summary" `Quick
                test_report_reprints_summary;
              Alcotest.test_case "report refuses a non-trace" `Quick
                test_report_refuses_non_trace;
            ] );
          ( "goldens",
            List.map
              (fun name -> Alcotest.test_case name `Quick (check_golden name))
              golden_names );
        ])
