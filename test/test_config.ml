(* Knob tests: the typed accessors and their defaults, malformed-knob
   errors, and [memx] refusing a malformed knob or flag end to end.

   Knobs are process-global, so every test restores the environment it
   touched: [Unix.putenv name ""] clears a knob (empty-is-unset). *)

open Mcx_util

let clear name = Unix.putenv name ""

let with_env name value f =
  Unix.putenv name value;
  Fun.protect ~finally:(fun () -> clear name) f

(* --- accessors ---------------------------------------------------------- *)

let test_defaults () =
  Alcotest.(check (option int)) "jobs unset" None (Config.jobs ());
  Alcotest.(check bool) "times default" true (Config.trace_times ());
  Alcotest.(check int) "cache default" 512 (Config.cache_size ());
  Alcotest.(check (option int)) "samples unset" None (Config.samples ())

let test_env_values () =
  with_env "MCX_JOBS" "3" (fun () ->
      Alcotest.(check (option int)) "env value" (Some 3) (Config.jobs ()));
  Alcotest.(check (option int)) "cleared = unset" None (Config.jobs ());
  with_env "MCX_CACHE_SIZE" " 5 " (fun () ->
      Alcotest.(check int) "whitespace trimmed" 5 (Config.cache_size ()));
  with_env "MCX_JOBS" "99" (fun () ->
      Alcotest.(check int) "jobs cap visible in the resolved value" 64
        (Config.jobs_resolved ()))

let test_jobs_resolved_clamps () =
  with_env "MCX_JOBS" "1" (fun () ->
      Alcotest.(check int) "resolved = env" 1 (Config.jobs_resolved ()));
  with_env "MCX_JOBS" "4096" (fun () ->
      Alcotest.(check int) "clamped to 64" 64 (Config.jobs_resolved ()));
  Alcotest.(check bool) "unset resolves to >= 1" true (Config.jobs_resolved () >= 1)

(* --- validation -------------------------------------------------------- *)

let check_invalid name what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid for %s" name what
  | exception Config.Invalid { knob; _ } ->
    Alcotest.(check string) (name ^ " names the knob") name knob

let test_malformed_values () =
  with_env "MCX_JOBS" "abc" (fun () -> check_invalid "MCX_JOBS" "abc" Config.jobs);
  with_env "MCX_JOBS" "0" (fun () -> check_invalid "MCX_JOBS" "0" Config.jobs);
  with_env "MCX_SAMPLES" "0" (fun () -> check_invalid "MCX_SAMPLES" "0" Config.samples);
  with_env "MCX_CACHE_SIZE" "-3" (fun () ->
      check_invalid "MCX_CACHE_SIZE" "-3" Config.cache_size);
  with_env "MCX_TRACE_TIMES" "maybe" (fun () ->
      check_invalid "MCX_TRACE_TIMES" "maybe" Config.trace_times)

let test_invalid_message () =
  with_env "MCX_SAMPLES" "0" (fun () ->
      match Config.samples () with
      | _ -> Alcotest.fail "expected Invalid"
      | exception (Config.Invalid _ as e) ->
        Alcotest.(check string)
          "printer names knob, value and expected form"
          "invalid MCX_SAMPLES=\"0\" (expected a positive integer (Monte Carlo samples))"
          (Printexc.to_string e))

(* Every entry point refuses to start on a malformed knob or flag: exit
   2 with nothing on stdout, naming the value and the form expected.
   Malformed knobs together give one startup error naming each. *)
let test_memx_refuses_malformed () =
  List.iteri
    (fun i (env, args, needles) ->
      let stdout_path = Printf.sprintf "refuses%d.out" i in
      let stderr_path = Printf.sprintf "refuses%d.err" i in
      Memx_run.run_memx ~status:2 ~env ~stdout_path ~stderr_path args;
      Alcotest.(check string) "no stdout" "" (Memx_run.read_file stdout_path);
      let err = Memx_run.read_file stderr_path in
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("stderr names " ^ needle) true (Memx_run.contains err needle))
        needles)
    [
      ( [ "MCX_SAMPLES=0" ], [ "experiment"; "yield" ], [ "invalid MCX_SAMPLES=\"0\"" ] );
      ( [ "MCX_JOBS=abc"; "MCX_CACHE_SIZE=-3" ],
        [ "serve" ],
        [ "invalid MCX_JOBS=\"abc\""; "invalid MCX_CACHE_SIZE=\"-3\"" ] );
      ( [],
        [ "experiment"; "yield"; "--samples"; "0" ],
        [ "invalid --samples=\"0\" (expected a positive integer (Monte Carlo samples))" ] );
      ( [],
        [ "serve"; "--cache-size=-1" ],
        [
          "invalid --cache-size=\"-1\" (expected a non-negative integer (cache entries; 0 \
           disables))";
        ] );
      ( [],
        [ "serve"; "--batch"; "0" ],
        [ "invalid --batch=\"0\" (expected a positive integer (requests per batch))" ] );
    ]

let test_errors_sweep () =
  with_env "MCX_JOBS" "abc" (fun () ->
      with_env "MCX_SAMPLES" "0" (fun () ->
          with_env "MCX_CACHE_SIZE" "-3" (fun () ->
              let errs = Config.errors () in
              Alcotest.(check (list string))
                "every malformed knob reported, in declaration order"
                [ "MCX_JOBS"; "MCX_CACHE_SIZE"; "MCX_SAMPLES" ]
                (List.map (fun e -> e.Config.knob) errs);
              Alcotest.(check string) "value carried" "abc"
                (List.nth errs 0).Config.value)));
  Alcotest.(check int) "clean env has no errors" 0 (List.length (Config.errors ()))

let () =
  Alcotest.run "config"
    [
      ( "accessors",
        [
          Alcotest.test_case "defaults" `Quick test_defaults;
          Alcotest.test_case "env values" `Quick test_env_values;
          Alcotest.test_case "jobs resolution clamps" `Quick test_jobs_resolved_clamps;
        ] );
      ( "validation",
        [
          Alcotest.test_case "malformed values raise" `Quick test_malformed_values;
          Alcotest.test_case "error message" `Quick test_invalid_message;
          Alcotest.test_case "memx experiment refuses" `Quick test_memx_refuses_malformed;
          Alcotest.test_case "errors () sweeps every knob" `Quick test_errors_sweep;
        ] );
    ]
