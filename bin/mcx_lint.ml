(* mcx-lint — static analysis enforcing the repo's determinism,
   domain-safety and packed-type invariants. See lib/lint/ for the rules
   and README "Static analysis" for the contract.

   Exit codes: 0 clean, 1 findings (or stale allows under
   --check-allows), 2 usage/internal error. *)

let usage =
  "mcx-lint [--list-rules] [--only RULE[,RULE...]] [--format text|json|sarif]\n\
  \        [--out FILE] [--root DIR] [--allow-file FILE|none] [--check-allows]\n\n\
   Lints lib/ bin/ bench/ test/ under the repo root (nearest dune-project).\n\
   Typed rules need a .cmt for every .ml: run `dune build @default @check` first.\n"

let kind_tag = function
  | Mcx_lint.Rules.Source -> "[source]"
  | Mcx_lint.Rules.Typed -> "[typed] "

let list_rules () =
  List.iter
    (fun (r : Mcx_lint.Rules.t) ->
      Printf.printf "%-24s %s  %s\n" r.id (kind_tag r.kind) r.synopsis)
    Mcx_lint.Rules.all

let () =
  let list = ref false in
  let only = ref [] in
  let format = ref "text" in
  let out = ref "" in
  let root = ref "" in
  let allow_file = ref "lint.allow" in
  let check_allows = ref false in
  let spec =
    [
      ("--list-rules", Arg.Set list, " list rule ids and synopses, then exit");
      ( "--only",
        Arg.String
          (fun s -> only := !only @ List.filter (( <> ) "") (String.split_on_char ',' s)),
        "RULES restrict to a comma-separated list of rule ids" );
      ( "--format",
        Arg.Symbol ([ "text"; "json"; "sarif" ], fun s -> format := s),
        " report format (default text)" );
      ("--out", Arg.Set_string out, "FILE also write the report to FILE");
      ("--root", Arg.Set_string root, "DIR repo root (default: walk up to dune-project)");
      ( "--allow-file",
        Arg.Set_string allow_file,
        "FILE allowlist path relative to the root (default lint.allow; 'none' disables)" );
      ( "--check-allows",
        Arg.Set check_allows,
        " exit nonzero when an allow span or lint.allow entry suppresses nothing" );
    ]
  in
  let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("mcx-lint: " ^ m); exit 2) fmt in
  (try Arg.parse_argv Sys.argv (Arg.align spec) (fun a -> fail "unexpected argument %S" a) usage
   with
  | Arg.Bad msg ->
    prerr_string msg;
    exit 2
  | Arg.Help msg ->
    print_string msg;
    exit 0);
  if !list then begin
    list_rules ();
    exit 0
  end;
  let root =
    if !root <> "" then !root
    else
      match Mcx_lint.Driver.find_root () with
      | Some r -> r
      | None -> fail "no dune-project found above %s (use --root)" (Sys.getcwd ())
  in
  let config =
    {
      (Mcx_lint.Driver.default_config ~root) with
      only = !only;
      allow_file = (if !allow_file = "none" then None else Some !allow_file);
    }
  in
  match Mcx_lint.Driver.run config with
  | exception Invalid_argument msg -> fail "%s" msg
  | exception Mcx_lint.Driver.Missing_cmt files ->
    fail "no .cmt for %s; run `dune build @default @check` first"
      (String.concat ", " files)
  | result ->
    let report =
      match !format with
      | "json" -> Mcx_lint.Driver.report_json result ^ "\n"
      | "sarif" -> Mcx_lint.Driver.report_sarif result ^ "\n"
      | _ -> Mcx_lint.Driver.report_text result
    in
    print_string report;
    if !out <> "" then begin
      let oc = open_out !out in
      output_string oc report;
      close_out oc
    end;
    let stale = result.stale_allows in
    if !check_allows && stale <> [] then begin
      List.iter
        (fun (s : Mcx_lint.Driver.stale_allow) ->
          Printf.eprintf "mcx-lint: stale allow at %s:%d (rule %s): suppresses nothing\n"
            s.sa_file s.sa_line s.sa_rule)
        stale;
      exit 1
    end;
    if result.findings = [] then exit 0 else exit 1
