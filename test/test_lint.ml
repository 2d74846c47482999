(* mcx-lint tests: every rule fires at the expected fixture line, both
   suppression mechanisms ([@mcx.lint.allow] attributes and the root
   lint.allow file) silence findings where they may, and — the
   self-hosting check — the repository itself lints clean.

   The driver locates the repo root by walking up from the test's working
   directory to the nearest dune-project, i.e. the real source tree, with
   typed (.cmt) coverage coming from _build/default. *)

module Lint = Mcx_lint

let root =
  match Lint.Driver.find_root () with
  | Some r -> r
  | None -> failwith "test_lint: no dune-project above the test directory"

let fixture_dir = "test/lint_fixtures/"

(* Lint a single fixture file with the path allowlist disabled (the repo
   lint.allow suppresses the whole fixture tree). *)
let lint_fixture file =
  let config =
    {
      (Lint.Driver.default_config ~root) with
      paths = [ fixture_dir ^ file ];
      allow_file = None;
    }
  in
  (Lint.Driver.run config).findings

let line_rules findings =
  List.map (fun (f : Lint.Finding.t) -> (f.line, f.rule)) findings

let check_fixture file expected =
  let findings = lint_fixture file in
  Alcotest.(check (list (pair int string)))
    (file ^ " findings")
    expected (line_rules findings)

(* --- one test per rule ----------------------------------------------- *)
(* Each fixture also contains clean and attribute-annotated variants on
   other lines, so the exact expected list doubles as the suppression
   assertion: a compliant or suppressed line showing up here is a bug,
   and so is a missing annotated line of an owner-only rule (fixtures
   are lib code, where only the owner module may hold the hazard). *)

let test_determinism_random () =
  check_fixture "det_random.ml"
    [ (3, "determinism-random"); (5, "determinism-random"); (7, "determinism-random") ]

let test_determinism_wallclock () =
  check_fixture "det_wallclock.ml"
    [ (3, "determinism-wallclock"); (5, "determinism-wallclock"); (7, "determinism-wallclock") ]

let test_determinism_poly_hash () =
  check_fixture "det_poly_hash.ml"
    [ (3, "determinism-poly-hash"); (5, "determinism-poly-hash") ]

let test_packed_poly_compare () =
  check_fixture "packed_poly.ml"
    [
      (4, "packed-poly-compare");
      (7, "packed-poly-compare");
      (10, "packed-poly-compare");
      (13, "packed-poly-compare");
    ]

let test_float_sort_poly_compare () =
  check_fixture "float_sort_poly.ml"
    [ (4, "float-sort-poly-compare"); (7, "float-sort-poly-compare") ]

let test_domain_toplevel_state () =
  check_fixture "race_toplevel.ml"
    [
      (3, "domain-toplevel-state");
      (5, "domain-toplevel-state");
      (7, "domain-toplevel-state");
    ]

let test_output_print () =
  check_fixture "out_print.ml" [ (3, "output-print"); (5, "output-print"); (9, "output-print") ]

let test_output_stderr_print () =
  check_fixture "out_stderr.ml"
    [ (3, "output-stderr-print"); (5, "output-stderr-print") ]

let test_output_float_json () =
  check_fixture "out_float_json.ml" [ (3, "output-float-json") ]

let test_hygiene_obj_magic () =
  check_fixture "hyg_obj_magic.ml" [ (3, "hygiene-obj-magic") ]

let test_hygiene_catchall () =
  check_fixture "hyg_catchall.ml" [ (3, "hygiene-catchall"); (5, "hygiene-catchall") ]

let test_raw_env_read () =
  check_fixture "env_read.ml"
    (List.map (fun line -> (line, "raw-env-read")) [ 3; 5; 7; 9; 11; 13; 15 ])

let test_module_aliases () =
  check_fixture "module_alias.ml"
    [
      (8, "raw-env-read");
      (10, "raw-env-read");
      (12, "determinism-random");
      (14, "determinism-wallclock");
      (16, "raw-env-read");
      (19, "packed-poly-compare");
    ]

let test_floating_allow_suppresses_file () = check_fixture "suppress_file.ml" []

(* --- suppression via lint.allow -------------------------------------- *)

let test_allow_file_parsing () =
  let entries =
    Lint.Allow.parse_allow_file_contents
      "# comment\n\ntest/lint_fixtures/ *\nlib/util/pool.ml hygiene-catchall  # trailing\n"
  in
  Alcotest.(check int) "entries" 2 (List.length entries);
  let f file rule : Lint.Finding.t =
    Lint.Finding.make ~file ~line:1 ~col:0 ~rule ~message:"m"
  in
  Alcotest.(check bool) "prefix+star" true
    (Lint.Allow.allowed_by_file entries (f "test/lint_fixtures/det_random.ml" "determinism-random"));
  Alcotest.(check bool) "exact+rule" true
    (Lint.Allow.allowed_by_file entries (f "lib/util/pool.ml" "hygiene-catchall"));
  Alcotest.(check bool) "rule mismatch" false
    (Lint.Allow.allowed_by_file entries (f "lib/util/pool.ml" "output-print"));
  Alcotest.(check bool) "path mismatch" false
    (Lint.Allow.allowed_by_file entries (f "lib/util/prng.ml" "hygiene-catchall"))

let test_allow_file_suppresses_fixtures () =
  (* Same scan as the fixture tests, but with the repo lint.allow active:
     everything under test/lint_fixtures/ must be dropped. *)
  let config =
    { (Lint.Driver.default_config ~root) with paths = [ "test/lint_fixtures" ] }
  in
  let result = Lint.Driver.run config in
  Alcotest.(check (list string)) "fixtures allowlisted" []
    (List.map Lint.Finding.to_string result.findings)

(* --- rule registry, scoping, CLI-surface behaviour ------------------- *)

let test_rule_registry () =
  let ids = Lint.Rules.ids in
  Alcotest.(check int) "12 rules" 12 (List.length ids);
  Alcotest.(check int) "ids unique" (List.length ids)
    (List.length (List.sort_uniq String.compare ids));
  List.iter (fun id -> Alcotest.(check bool) id true (Lint.Rules.mem id)) ids;
  Alcotest.(check bool) "unknown id" false (Lint.Rules.mem "no-such-rule")

let test_rule_scoping () =
  let applies = Lint.Rules.applies in
  Alcotest.(check bool) "print banned in lib" true (applies "output-print" "lib/logic/cube.ml");
  Alcotest.(check bool) "print banned in render" true
    (applies "output-print" "lib/crossbar/render.ml");
  Alcotest.(check bool) "print banned in texttable" true
    (applies "output-print" "lib/util/texttable.ml");
  Alcotest.(check bool) "print ok in tests" false (applies "output-print" "test/test_logic.ml");
  Alcotest.(check bool) "print banned in fixtures" true
    (applies "output-print" "test/lint_fixtures/out_print.ml");
  Alcotest.(check bool) "random ok in prng" false
    (applies "determinism-random" "lib/util/prng.ml");
  Alcotest.(check bool) "random banned elsewhere" true
    (applies "determinism-random" "lib/util/pool.ml");
  Alcotest.(check bool) "wallclock ok in timing" false
    (applies "determinism-wallclock" "lib/util/timing.ml");
  Alcotest.(check bool) "toplevel state ok in telemetry" false
    (applies "domain-toplevel-state" "lib/util/telemetry.ml");
  Alcotest.(check bool) "toplevel state banned in tests" true
    (applies "domain-toplevel-state" "test/test_config.ml");
  Alcotest.(check bool) "toplevel state banned in bench" true
    (applies "domain-toplevel-state" "bench/kernels.ml");
  Alcotest.(check bool) "stderr banned in service" true
    (applies "output-stderr-print" "lib/service/serve.ml");
  Alcotest.(check bool) "stderr banned in util" true
    (applies "output-stderr-print" "lib/util/lru.ml");
  Alcotest.(check bool) "stderr ok in checkpoint" false
    (applies "output-stderr-print" "lib/util/checkpoint.ml");
  Alcotest.(check bool) "stderr ok in telemetry" false
    (applies "output-stderr-print" "lib/util/telemetry.ml");
  Alcotest.(check bool) "stderr ok outside instrumented layers" false
    (applies "output-stderr-print" "lib/logic/cube.ml");
  Alcotest.(check bool) "stderr banned in fixtures" true
    (applies "output-stderr-print" "test/lint_fixtures/out_stderr.ml");
  Alcotest.(check bool) "env read ok in the registry" false
    (applies "raw-env-read" "lib/util/config.ml");
  Alcotest.(check bool) "env read banned elsewhere in lib" true
    (applies "raw-env-read" "lib/util/pool.ml");
  Alcotest.(check bool) "env read banned in tests" true
    (applies "raw-env-read" "test/test_golden.ml");
  Alcotest.(check bool) "env read banned in fixtures" true
    (applies "raw-env-read" "test/lint_fixtures/env_read.ml");
  let suppressible = Lint.Rules.attribute_suppresses in
  Alcotest.(check bool) "owner-only rule: no attribute in lib" false
    (suppressible "determinism-random" "lib/experiments/yield.ml");
  Alcotest.(check bool) "owner-only rule: no attribute in fixtures" false
    (suppressible "output-print" "test/lint_fixtures/out_print.ml");
  Alcotest.(check bool) "owner-only rule: attribute in tests" true
    (suppressible "raw-env-read" "test/memx_run.ml");
  Alcotest.(check bool) "other rules: attribute in lib" true
    (suppressible "domain-toplevel-state" "lib/util/pool.ml")

let test_only_filter () =
  let config =
    {
      (Lint.Driver.default_config ~root) with
      paths = [ fixture_dir ^ "det_wallclock.ml" ];
      allow_file = None;
      only = [ "determinism-random" ];
    }
  in
  Alcotest.(check int) "other rules filtered" 0
    (List.length (Lint.Driver.run config).findings);
  let bad = { config with only = [ "no-such-rule" ] } in
  Alcotest.check_raises "unknown rule rejected"
    (Invalid_argument "mcx-lint: unknown rule \"no-such-rule\"") (fun () ->
      ignore (Lint.Driver.run bad))

let test_finding_format () =
  let f : Lint.Finding.t =
    Lint.Finding.make ~file:"lib/x.ml" ~line:3 ~col:7 ~rule:"output-print" ~message:"nope"
  in
  Alcotest.(check string) "text" "lib/x.ml:3:7 [output-print] nope"
    (Lint.Finding.to_string f)

let test_json_report () =
  let config =
    {
      (Lint.Driver.default_config ~root) with
      paths = [ fixture_dir ^ "hyg_obj_magic.ml" ];
      allow_file = None;
    }
  in
  let json = Lint.Driver.report_json (Lint.Driver.run config) in
  let contains needle =
    let n = String.length needle and h = String.length json in
    let rec go i = i + n <= h && (String.sub json i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "schema tag" true (contains "\"schema\":\"mcx-lint/1\"");
  Alcotest.(check bool) "rule id" true (contains "\"rule\":\"hygiene-obj-magic\"");
  Alcotest.(check bool) "count" true (contains "\"count\":1");
  Alcotest.(check bool) "no call-graph fields" false (contains "graph_")

(* A dangling symlink under a walked tree (say alcotest's [latest] link
   while another test binary replaces it) is absent to the walk; it must
   not fail the run. The one real source has no .cmt (there is no build),
   which the typed rules cannot accept: the run names it. *)
let test_walk_skips_dangling () =
  let tmp = Filename.temp_dir "mcx-lint-walk" "" in
  let path parts = List.fold_left Filename.concat tmp parts in
  let nowhere = path [ "nowhere" ] in
  let build = path [ "_build" ] and default = path [ "_build"; "default" ] in
  let lib = path [ "lib" ] in
  List.iter (fun d -> Sys.mkdir d 0o755) [ build; default; lib ];
  Out_channel.with_open_bin (path [ "lib"; "ok.ml" ]) (fun oc ->
      output_string oc "let x = 1\n");
  let links = [ path [ "_build"; "default"; "latest" ]; path [ "lib"; "gone.ml" ] ] in
  List.iter (Unix.symlink nowhere) links;
  Fun.protect
    ~finally:(fun () ->
      List.iter Sys.remove (path [ "lib"; "ok.ml" ] :: links);
      List.iter Sys.rmdir [ lib; default; build; tmp ])
    (fun () ->
      Alcotest.check_raises "only the real source lacks a .cmt"
        (Lint.Driver.Missing_cmt [ "lib/ok.ml" ]) (fun () ->
          ignore
            (Lint.Driver.run { (Lint.Driver.default_config ~root:tmp) with allow_file = None })))

(* --- stale-allow tracking (--check-allows) ---------------------------- *)

let test_stale_allow_entries () =
  let entries =
    Lint.Allow.parse_allow_file_contents "# header\nlib/never/ *\ntest/lint_fixtures/ *\n"
  in
  let f =
    Lint.Finding.make ~file:"test/lint_fixtures/det_random.ml" ~line:3 ~col:0
      ~rule:"determinism-random" ~message:"m"
  in
  Alcotest.(check bool) "suppressed" true (Lint.Allow.allowed_by_file entries f);
  (match entries with
  | [ never; fixtures ] ->
    Alcotest.(check bool) "unmatched entry stays unused" false never.entry_used;
    Alcotest.(check int) "entry line recorded" 2 never.entry_line;
    Alcotest.(check bool) "matched entry marked used" true fixtures.entry_used
  | _ -> Alcotest.fail "expected two entries");
  let span : Lint.Allow.span =
    { rule = Some "output-print"; start_line = 1; start_col = 0; end_line = 9; end_col = 0; used = false }
  in
  let print_at line =
    Lint.Finding.make ~file:"bin/x.ml" ~line ~col:2 ~rule:"output-print" ~message:"m"
  in
  Alcotest.(check bool) "span outside its lines" false (Lint.Allow.covers [ span ] (print_at 12));
  Alcotest.(check bool) "span still unused" false span.used;
  Alcotest.(check bool) "span covers the finding" true (Lint.Allow.covers [ span ] (print_at 4));
  Alcotest.(check bool) "span marked used" true span.used

(* Includes the annotations that may not suppress their owner-only
   finding: covering it counts as use, since the finding still fails. *)
let test_fixture_run_has_no_stale_allows () =
  let config =
    { (Lint.Driver.default_config ~root) with paths = [ "test/lint_fixtures" ]; allow_file = None }
  in
  let result = Lint.Driver.run config in
  Alcotest.(check int) "every fixture annotation earns its keep" 0
    (List.length result.stale_allows)

(* --- SARIF ------------------------------------------------------------ *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_sarif_report () =
  let config =
    {
      (Lint.Driver.default_config ~root) with
      paths = [ fixture_dir ^ "hyg_obj_magic.ml" ];
      allow_file = None;
    }
  in
  let sarif = Lint.Driver.report_sarif (Lint.Driver.run config) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("sarif contains " ^ needle) true (contains sarif needle))
    [
      "\"version\":\"2.1.0\"";
      "sarif-schema-2.1.0.json";
      "\"name\":\"mcx-lint\"";
      "\"ruleId\":\"hygiene-obj-magic\"";
      "\"startLine\":3";
      "\"uri\":\"test/lint_fixtures/hyg_obj_magic.ml\"";
    ];
  (* columns are 1-based in SARIF: [Obj.magic] sits at col 28 *)
  Alcotest.(check bool) "1-based startColumn" true (contains sarif "\"startColumn\":29")

(* --- the self-hosting check ------------------------------------------ *)

(* .ml files under the scanned trees, skipping [_build] and dot-dirs and
   treating a vanished or dangling entry as absent, as the driver's walk
   does. *)
let count_ml paths =
  let rec count dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> 0
    | entries ->
      Array.fold_left
        (fun n entry ->
          let path = Filename.concat dir entry in
          match Sys.is_directory path with
          | exception Sys_error _ -> n
          | true -> if entry = "_build" || entry.[0] = '.' then n else n + count path
          | false -> if Filename.check_suffix entry ".ml" then n + 1 else n)
        0 entries
  in
  List.fold_left (fun n p -> n + count (Filename.concat root p)) 0 paths

let test_self_host () =
  let result = Lint.Driver.run (Lint.Driver.default_config ~root) in
  Alcotest.(check (list string)) "repository lints clean" []
    (List.map Lint.Finding.to_string result.findings);
  (* The determinism, env and stdout rules read only the Typedtree: every
     scanned .ml must have been linted through its .cmt, and the scan must
     have reached the whole repository, not an empty or partial root. *)
  Alcotest.(check bool)
    (Printf.sprintf "typed coverage (%d files)" result.files_typed)
    true
    (result.files_typed >= 100);
  Alcotest.(check int) "typed coverage of every .ml" (count_ml Lint.Driver.default_paths)
    result.files_typed;
  Alcotest.(check (list string)) "no stale allows" []
    (List.map
       (fun (s : Lint.Driver.stale_allow) ->
         Printf.sprintf "%s:%d %s" s.sa_file s.sa_line s.sa_rule)
       result.stale_allows)

let () =
  Alcotest.run "mcx-lint"
    [
      ( "rules",
        [
          Alcotest.test_case "determinism-random" `Quick test_determinism_random;
          Alcotest.test_case "determinism-wallclock" `Quick test_determinism_wallclock;
          Alcotest.test_case "determinism-poly-hash" `Quick test_determinism_poly_hash;
          Alcotest.test_case "packed-poly-compare" `Quick test_packed_poly_compare;
          Alcotest.test_case "float-sort-poly-compare" `Quick test_float_sort_poly_compare;
          Alcotest.test_case "domain-toplevel-state" `Quick test_domain_toplevel_state;
          Alcotest.test_case "output-print" `Quick test_output_print;
          Alcotest.test_case "output-stderr-print" `Quick test_output_stderr_print;
          Alcotest.test_case "output-float-json" `Quick test_output_float_json;
          Alcotest.test_case "hygiene-obj-magic" `Quick test_hygiene_obj_magic;
          Alcotest.test_case "hygiene-catchall" `Quick test_hygiene_catchall;
          Alcotest.test_case "raw-env-read" `Quick test_raw_env_read;
          Alcotest.test_case "module aliases" `Quick test_module_aliases;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "floating allow" `Quick test_floating_allow_suppresses_file;
          Alcotest.test_case "lint.allow parsing" `Quick test_allow_file_parsing;
          Alcotest.test_case "lint.allow suppresses fixtures" `Quick
            test_allow_file_suppresses_fixtures;
        ] );
      ( "driver",
        [
          Alcotest.test_case "rule registry" `Quick test_rule_registry;
          Alcotest.test_case "rule scoping" `Quick test_rule_scoping;
          Alcotest.test_case "--only filter" `Quick test_only_filter;
          Alcotest.test_case "finding format" `Quick test_finding_format;
          Alcotest.test_case "json report" `Quick test_json_report;
          Alcotest.test_case "walk skips dangling entries" `Quick test_walk_skips_dangling;
        ] );
      ( "allows",
        [
          Alcotest.test_case "stale tracking" `Quick test_stale_allow_entries;
          Alcotest.test_case "fixture run has none" `Quick
            test_fixture_run_has_no_stale_allows;
        ] );
      ("sarif", [ Alcotest.test_case "report shape" `Quick test_sarif_report ]);
      ("self-host", [ Alcotest.test_case "repo lints clean" `Quick test_self_host ]);
    ]
