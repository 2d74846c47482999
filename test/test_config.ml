(* Config registry tests: typed accessors with provenance, eager flag
   validation, malformed-knob errors, the canonical mcx-config/1
   snapshot (field order, digest stability, the semantic-only
   projection's job-count invariance), and [memx config] /
   [memx experiment] driven end to end.

   Knobs are process-global, so every test restores the environment it
   touched: [Unix.putenv name ""] clears a knob (empty-is-unset) and
   [Config.reset_flags] drops flag overrides. *)

open Mcx_util

let clear name = Unix.putenv name ""

let with_env name value f =
  Unix.putenv name value;
  Fun.protect ~finally:(fun () -> clear name) f

let with_flag name value f =
  Config.set_flag name value;
  Fun.protect ~finally:(fun () -> Config.reset_flags ()) f

(* --- accessors and provenance ----------------------------------------- *)

let prov_of name =
  match List.find_opt (fun k -> k.Config.name = name) (Config.knobs ()) with
  | Some k -> Config.provenance_name k.Config.prov
  | None -> Alcotest.failf "unregistered knob %s" name

let test_defaults () =
  Alcotest.(check (option int)) "jobs unset" None (Config.jobs ());
  Alcotest.(check bool) "times default" true (Config.trace_times ());
  Alcotest.(check int) "cache default" 512 (Config.cache_size ());
  Alcotest.(check (option int)) "samples unset" None (Config.samples ());
  Alcotest.(check string) "provenance default" "default" (prov_of "MCX_JOBS")

let test_env_provenance () =
  with_env "MCX_JOBS" "3" (fun () ->
      Alcotest.(check (option int)) "env value" (Some 3) (Config.jobs ());
      Alcotest.(check string) "provenance env" "env" (prov_of "MCX_JOBS"));
  Alcotest.(check (option int)) "cleared = unset" None (Config.jobs ());
  with_env "MCX_CACHE_SIZE" " 5 " (fun () ->
      Alcotest.(check int) "whitespace trimmed" 5 (Config.cache_size ()));
  with_env "MCX_JOBS" "99" (fun () ->
      Alcotest.(check int) "jobs cap visible in the resolved value" 64
        (Config.jobs_resolved ()))

let test_flag_overrides_env () =
  with_env "MCX_CACHE_SIZE" "100" (fun () ->
      with_flag "MCX_CACHE_SIZE" "7" (fun () ->
          Alcotest.(check int) "flag wins" 7 (Config.cache_size ());
          Alcotest.(check string) "provenance flag" "flag" (prov_of "MCX_CACHE_SIZE"));
      Alcotest.(check int) "reset restores env" 100 (Config.cache_size ());
      Alcotest.(check string) "provenance env again" "env" (prov_of "MCX_CACHE_SIZE"))

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
  with_env "MCX_JOBS" "abc" (fun () ->
      check_invalid "MCX_JOBS" "abc" Config.jobs;
      check_invalid "MCX_JOBS" "abc (snapshot)" (fun () -> Config.snapshot ()));
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

(* Every entry point refuses to start on a malformed knob, not just
   [memx config]: exit 2, naming the knob and value. A malformed and an
   unregistered knob together give one startup error naming both. *)
let test_memx_refuses_malformed () =
  List.iter
    (fun (env, args, needles) ->
      let stderr_path = Filename.temp_file "mcx-config" ".err" in
      Memx_run.run_memx ~status:2 ~env ~stderr_path args;
      let err = Memx_run.read_file stderr_path in
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("stderr names " ^ needle) true (Memx_run.contains err needle))
        needles)
    [
      ( [ "MCX_SAMPLES=0" ], [ "experiment"; "yield" ], [ "invalid MCX_SAMPLES=\"0\"" ] );
      ( [ "MCX_TYPO_KNOB=1"; "MCX_JOBS=abc" ],
        [ "config"; "--json" ],
        [ "invalid MCX_JOBS=\"abc\""; "unknown MCX_TYPO_KNOB" ] );
    ]

let test_set_flag_validates_eagerly () =
  check_invalid "MCX_JOBS" "flag abc" (fun () -> Config.set_flag "MCX_JOBS" "abc");
  Alcotest.check_raises "unregistered name rejected"
    (Invalid_argument "Config: unregistered knob \"MCX_TYPO_KNOB\"") (fun () ->
      Config.set_flag "MCX_TYPO_KNOB" "1")

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

let test_unknown_vars () =
  Unix.putenv "MCX_TYPO_KNOB" "1";
  Fun.protect
    ~finally:(fun () -> clear "MCX_TYPO_KNOB")
    (fun () ->
      Alcotest.(check bool) "typo detected" true
        (List.mem_assoc "MCX_TYPO_KNOB" (Config.unknown ())));
  Alcotest.(check bool) "cleared typo forgotten" false
    (List.mem_assoc "MCX_TYPO_KNOB" (Config.unknown ()));
  Alcotest.(check bool) "registered knobs are not unknown" false
    (List.mem_assoc "MCX_JOBS" (Config.unknown ()))

(* --- snapshot and digest ----------------------------------------------- *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let test_snapshot_shape () =
  let s = Json_out.to_string (Config.snapshot ()) in
  Alcotest.(check bool) "schema then digest lead the document" true
    (starts_with ~prefix:"{\"schema\":\"mcx-config/1\",\"digest\":\"" s);
  let json = Config.snapshot () in
  (match Json_out.member "knobs" json with
  | Some (Json_out.List knobs) ->
    Alcotest.(check int) "all knobs present" 6 (List.length knobs);
    let names =
      List.map
        (fun k ->
          match Option.bind (Json_out.member "name" k) Json_out.to_string_opt with
          | Some n -> n
          | None -> Alcotest.fail "knob entry without a name")
        knobs
    in
    Alcotest.(check (list string))
      "declaration order is the document order"
      [
        "MCX_JOBS"; "MCX_TRACE"; "MCX_TRACE_TIMES"; "MCX_CACHE_SIZE"; "MCX_SAMPLES";
        "MCX_GOLDEN_REGEN";
      ]
      names
  | _ -> Alcotest.fail "snapshot has no knobs list");
  match Option.bind (Json_out.member "digest" json) Json_out.to_string_opt with
  | Some d -> Alcotest.(check string) "embedded digest = digest ()" (Config.digest ()) d
  | None -> Alcotest.fail "snapshot has no digest"

let test_digest_stability () =
  Alcotest.(check string) "digest is deterministic" (Config.digest ()) (Config.digest ());
  let base = Config.digest () in
  with_env "MCX_SAMPLES" "7" (fun () ->
      Alcotest.(check bool) "semantic knob changes the full digest" true
        (Config.digest () <> base);
      (* Same value via flag instead of env: provenance is excluded. *)
      let via_env = Config.digest () in
      clear "MCX_SAMPLES";
      with_flag "MCX_SAMPLES" "7" (fun () ->
          Alcotest.(check string) "flag vs env digest identically" via_env
            (Config.digest ())))

let test_semantic_projection_job_invariant () =
  let at_jobs n f = with_env "MCX_JOBS" (string_of_int n) f in
  let sem1 = at_jobs 1 (fun () -> Json_out.to_string (Config.snapshot ~semantic_only:true ())) in
  let sem4 = at_jobs 4 (fun () -> Json_out.to_string (Config.snapshot ~semantic_only:true ())) in
  Alcotest.(check string) "semantic snapshot byte-identical at jobs 1 vs 4" sem1 sem4;
  let full1 = at_jobs 1 (fun () -> Config.digest ()) in
  let full4 = at_jobs 4 (fun () -> Config.digest ()) in
  Alcotest.(check bool) "full digest distinguishes job counts" true (full1 <> full4);
  (match Json_out.of_string sem1 with
  | Ok json -> (
    match Json_out.member "knobs" json with
    | Some (Json_out.List knobs) ->
      Alcotest.(check int) "semantic projection keeps 2 knobs" 2 (List.length knobs)
    | _ -> Alcotest.fail "semantic snapshot has no knobs list")
  | Error e -> Alcotest.failf "semantic snapshot does not parse: %s" e)

(* --- the memx binary ------------------------------------------------------ *)

let fresh_dir () = Filename.temp_dir "mcx-config-test-" ""

(* [memx config] renders the registry as a table and as an mcx-config/1
   document naming every knob with its type, layer and provenance. *)
let test_memx_config () =
  let dir = fresh_dir () in
  let file name = Filename.concat dir name in
  Memx_run.run_memx ~stdout_path:(file "config.txt") ~stderr_path:(file "config.err")
    [ "config" ];
  Alcotest.(check bool) "the table lists MCX_JOBS" true
    (Memx_run.contains (Memx_run.read_file (file "config.txt")) "MCX_JOBS");
  Memx_run.run_memx ~stdout_path:(file "config.json") ~stderr_path:(file "config.err")
    [ "config"; "--json" ];
  match Json_out.of_string (Memx_run.read_file (file "config.json")) with
  | Error e -> Alcotest.failf "memx config --json does not parse: %s" e
  | Ok json -> (
    Alcotest.(check (option string))
      "schema" (Some "mcx-config/1")
      (Option.bind (Json_out.member "schema" json) Json_out.to_string_opt);
    Alcotest.(check bool) "has a digest" true (Option.is_some (Json_out.member "digest" json));
    match Json_out.member "knobs" json with
    | Some (Json_out.List knobs) ->
      Alcotest.(check bool) "at least 6 knobs" true (List.length knobs >= 6);
      List.iter
        (fun k ->
          List.iter
            (fun field ->
              Alcotest.(check bool) ("every knob has " ^ field) true
                (Option.is_some (Json_out.member field k)))
            [ "name"; "type"; "layer"; "provenance" ])
        knobs
    | _ -> Alcotest.fail "no knobs list")

(* --- property: snapshot round-trips through Json_out ------------------- *)

let knob_value_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun n -> ("MCX_JOBS", string_of_int n)) (int_range 1 100);
        map (fun b -> ("MCX_TRACE_TIMES", if b then "true" else "0")) bool;
        map (fun n -> ("MCX_CACHE_SIZE", string_of_int n)) (int_range 0 10_000);
        map (fun n -> ("MCX_SAMPLES", string_of_int n)) (int_range 1 100_000);
      ])

let prop_snapshot_round_trip =
  QCheck2.Test.make ~name:"snapshot round-trips through Json_out" ~count:200
    QCheck2.Gen.(list_size (int_range 0 6) knob_value_gen)
    (fun settings ->
      Fun.protect
        ~finally:(fun () -> Config.reset_flags ())
        (fun () ->
          List.iter (fun (name, value) -> Config.set_flag name value) settings;
          let rendered = Json_out.to_string (Config.snapshot ()) in
          match Json_out.of_string rendered with
          | Error e -> QCheck2.Test.fail_reportf "snapshot does not parse: %s" e
          | Ok json ->
            Json_out.to_string json = rendered
            && (match
                  Option.bind (Json_out.member "digest" json) Json_out.to_string_opt
                with
               | Some d -> d = Config.digest ()
               | None -> false)
            &&
            match Json_out.member "knobs" json with
            | Some (Json_out.List knobs) -> List.length knobs = 6
            | _ -> false))

let () =
  Alcotest.run "config"
    [
      ( "accessors",
        [
          Alcotest.test_case "defaults" `Quick test_defaults;
          Alcotest.test_case "env provenance" `Quick test_env_provenance;
          Alcotest.test_case "flag overrides env" `Quick test_flag_overrides_env;
          Alcotest.test_case "jobs resolution clamps" `Quick test_jobs_resolved_clamps;
        ] );
      ( "validation",
        [
          Alcotest.test_case "malformed values raise" `Quick test_malformed_values;
          Alcotest.test_case "error message" `Quick test_invalid_message;
          Alcotest.test_case "memx experiment refuses" `Quick test_memx_refuses_malformed;
          Alcotest.test_case "set_flag validates eagerly" `Quick
            test_set_flag_validates_eagerly;
          Alcotest.test_case "errors () sweeps every knob" `Quick test_errors_sweep;
          Alcotest.test_case "unknown MCX_* detection" `Quick test_unknown_vars;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "field order" `Quick test_snapshot_shape;
          Alcotest.test_case "digest stability" `Quick test_digest_stability;
          Alcotest.test_case "semantic projection is job-invariant" `Quick
            test_semantic_projection_job_invariant;
          QCheck_alcotest.to_alcotest prop_snapshot_round_trip;
          Alcotest.test_case "memx config" `Quick test_memx_config;
        ] );
    ]
