(* Orchestration: walk the scanned trees, parse every .ml/.mli (source
   rules + suppression spans), pair every scanned .ml with its .cmt
   (typed rules, each .cmt read once per process), then filter findings
   through the attribute spans, the [lint.allow] file and [--only]. *)

type config = {
  root : string;  (** absolute repo root *)
  paths : string list;  (** repo-relative files/dirs to scan *)
  only : string list;  (** restrict to these rule ids; [] = all *)
  allow_file : string option;  (** repo-relative allowlist, e.g. [Some "lint.allow"] *)
}

exception Missing_cmt of string list

let default_paths = [ "lib"; "bin"; "bench"; "test" ]

let default_config ~root =
  { root; paths = default_paths; only = []; allow_file = Some "lint.allow" }

let find_root () =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent
  in
  up (Sys.getcwd ())

(* --- tree walking ---------------------------------------------------- *)

let skip_dir name =
  name = "_build" || name = ".git" || (String.length name > 0 && name.[0] = '.')

(* [None] when the entry vanished or is a dangling symlink: a walk treats
   it as absent rather than failing the run. *)
let is_dir path =
  match Sys.is_directory path with b -> Some b | exception Sys_error _ -> None

let is_source name = Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"

let rec walk_files acc dir rel =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
    Array.sort String.compare entries;
    Array.fold_left
      (fun acc entry ->
        let path = Filename.concat dir entry in
        let erel = if rel = "" then entry else rel ^ "/" ^ entry in
        match is_dir path with
        | Some true -> if skip_dir entry then acc else walk_files acc path erel
        | Some false when is_source entry -> erel :: acc
        | Some false | None -> acc)
      acc entries

let scan_sources config =
  List.concat_map
    (fun p ->
      let abs = Filename.concat config.root p in
      match is_dir abs with
      | Some true -> List.rev (walk_files [] abs p)
      | Some false when is_source p -> [ p ]
      | Some false | None -> [])
    config.paths
  |> List.sort_uniq String.compare

(* --- parsing --------------------------------------------------------- *)

type parsed = {
  rel : string;
  spans : Allow.span list;
  source_findings : Finding.t list;
}

let parse_file config rel =
  let abs = Filename.concat config.root rel in
  let ic = open_in_bin abs in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lexbuf = Lexing.from_channel ic in
      Lexing.set_filename lexbuf rel;
      if Filename.check_suffix rel ".mli" then
        let sg = Parse.interface lexbuf in
        { rel; spans = Allow.spans_of_signature sg; source_findings = [] }
      else
        let str = Parse.implementation lexbuf in
        { rel; spans = Allow.spans_of_structure str; source_findings = Source_lint.run ~file:rel str })

let parse_error_finding rel (loc : Location.t) =
  Finding.make ~file:rel ~line:loc.loc_start.pos_lnum
    ~col:(loc.loc_start.pos_cnum - loc.loc_start.pos_bol)
    ~rule:"parse-error" ~message:"file does not parse; fix it before linting"

(* --- cmt discovery --------------------------------------------------- *)

(* Nested [_build] directories hold test-runner output (alcotest's
   [_build/_tests], whose [latest] link another test binary may be
   replacing); dune writes no .cmt there. *)
let rec walk_cmts acc dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
    Array.sort String.compare entries;
    Array.fold_left
      (fun acc entry ->
        let path = Filename.concat dir entry in
        match is_dir path with
        | Some true ->
          if List.mem entry [ "_build"; ".git"; ".sandbox"; ".actions" ] then acc
          else walk_cmts acc path
        | Some false when Filename.check_suffix entry ".cmt" -> path :: acc
        | Some false | None -> acc)
      acc entries

let cmt_paths root =
  let build = Filename.concat (Filename.concat root "_build") "default" in
  (* When the root *is* a dune build context (the self-hosting test runs
     inside _build/default), the .objs directories sit next to the copied
     sources. *)
  let walk_root = if is_dir build = Some true then build else root in
  List.rev (walk_cmts [] walk_root)

let normalize_rel p =
  if String.length p >= 2 && String.sub p 0 2 = "./" then
    String.sub p 2 (String.length p - 2)
  else p

(* --- per-module analysis ---------------------------------------------- *)

(* One .cmt: its source and typed findings; [None] for interface-only or
   unreadable cmts. *)
let analyze_cmt cmt_path =
  match Cmt_format.read_cmt cmt_path with
  | exception _ -> None
  | cmt -> (
    match (cmt.cmt_sourcefile, cmt.cmt_annots) with
    | Some src, Implementation str ->
      let rel = normalize_rel src in
      Some (rel, Typed_lint.run ~file:rel ~modname:cmt.cmt_modname str)
    | _ -> None)

(* Each .cmt is read once per (path, digest) per process: the test suite
   runs the driver dozens of times over one build tree. Top-level state
   is safe here because the driver never runs on Pool domains. *)
let analyzed : (string, Digest.t * (string * Finding.t list) option) Hashtbl.t =
  Hashtbl.create 256 [@@mcx.lint.allow "domain-toplevel-state"]

let analyze_once cmt_path =
  match Digest.file cmt_path with
  | exception _ -> None
  | digest -> (
    match Hashtbl.find_opt analyzed cmt_path with
    | Some (d, result) when Digest.equal d digest -> result
    | _ ->
      let result = analyze_cmt cmt_path in
      Hashtbl.replace analyzed cmt_path (digest, result);
      result)

(* Typed findings of every scanned .ml, each through one cmt (a source
   can be compiled into several build targets).
   @raise Missing_cmt naming the scanned .ml files that have none. *)
let typed_pass config ~sources =
  let pending = Hashtbl.create 64 in
  List.iter
    (fun rel -> if Filename.check_suffix rel ".ml" then Hashtbl.replace pending rel ())
    sources;
  let files_typed = Hashtbl.length pending in
  let typed =
    List.concat_map
      (fun cmt ->
        match analyze_once cmt with
        | Some (src, findings) when Hashtbl.mem pending src ->
          Hashtbl.remove pending src;
          findings
        | _ -> [])
      (cmt_paths config.root)
  in
  match List.filter (Hashtbl.mem pending) sources with
  | [] -> (typed, files_typed)
  | missing -> raise (Missing_cmt missing)

(* --- top level ------------------------------------------------------- *)

type stale_allow = {
  sa_file : string;  (** source file, or the [lint.allow] path itself *)
  sa_line : int;
  sa_rule : string;  (** ["*"] for allow-everything entries *)
}

type result = {
  findings : Finding.t list;
  files_scanned : int;
  files_typed : int;  (** scanned .ml files, each linted through its .cmt *)
  stale_allows : stale_allow list;  (** allow spans/entries that covered no finding *)
}

let run config =
  List.iter
    (fun id ->
      if not (Rules.mem id) then invalid_arg (Printf.sprintf "mcx-lint: unknown rule %S" id))
    config.only;
  let sources = scan_sources config in
  let spans_by_file = Hashtbl.create 64 in
  let source_findings = ref [] in
  List.iter
    (fun rel ->
      match parse_file config rel with
      | parsed ->
        Hashtbl.replace spans_by_file rel parsed.spans;
        source_findings := parsed.source_findings @ !source_findings
      | exception Syntaxerr.Error err ->
        source_findings :=
          parse_error_finding rel (Syntaxerr.location_of_error err) :: !source_findings
      | exception Lexer.Error (_, loc) ->
        source_findings := parse_error_finding rel loc :: !source_findings)
    sources;
  (* A file that does not parse has no .cmt either; its parse-error
     finding is the report. *)
  let typed, files_typed =
    typed_pass config ~sources:(List.filter (Hashtbl.mem spans_by_file) sources)
  in
  let allow_entries =
    match config.allow_file with
    | None -> []
    | Some rel -> Allow.load_allow_file (Filename.concat config.root rel)
  in
  (* Evaluate both suppression mechanisms unconditionally (no &&
     short-circuit): usage marking must see every mechanism that would
     have matched, or [--check-allows] reports live annotations stale. A
     span that covers a finding it may not suppress counts as used: the
     finding itself still fails the run. *)
  let keep (f : Finding.t) =
    let file_allowed = Allow.allowed_by_file allow_entries f in
    let span_covers =
      match Hashtbl.find_opt spans_by_file f.file with
      | Some spans -> Allow.covers spans f
      | None -> false
    in
    (config.only = [] || List.mem f.rule config.only)
    && (not file_allowed)
    && not (span_covers && Rules.attribute_suppresses f.rule f.file)
  in
  let findings =
    List.filter keep (!source_findings @ typed) |> List.sort_uniq Finding.compare
  in
  let stale_allows =
    let acc = ref [] in
    List.iter
      (fun (e : Allow.file_entry) ->
        if not e.entry_used then
          acc :=
            {
              sa_file = Option.value ~default:"lint.allow" config.allow_file;
              sa_line = e.entry_line;
              sa_rule = e.allow_rule;
            }
            :: !acc)
      allow_entries;
    List.iter
      (fun rel ->
        match Hashtbl.find_opt spans_by_file rel with
        | None -> ()
        | Some spans ->
          List.iter
            (fun (s : Allow.span) ->
              if not s.used then
                acc :=
                  {
                    sa_file = rel;
                    sa_line = s.start_line;
                    sa_rule = Option.value ~default:"*" s.rule;
                  }
                  :: !acc)
            spans)
      sources;
    List.sort compare !acc
  in
  { findings; files_scanned = List.length sources; files_typed; stale_allows }

(* --- reporting ------------------------------------------------------- *)

let report_text result =
  let buf = Buffer.create 256 in
  List.iter
    (fun f ->
      Buffer.add_string buf (Finding.to_string f);
      Buffer.add_char buf '\n')
    result.findings;
  Buffer.add_string buf
    (Printf.sprintf "mcx-lint: %d finding%s in %d files (%d with typed coverage)\n"
       (List.length result.findings)
       (if List.length result.findings = 1 then "" else "s")
       result.files_scanned result.files_typed);
  Buffer.contents buf

let stale_allow_to_json (s : stale_allow) =
  Mcx_util.Json_out.Obj
    [
      ("file", Mcx_util.Json_out.Str s.sa_file);
      ("line", Mcx_util.Json_out.Int s.sa_line);
      ("rule", Mcx_util.Json_out.Str s.sa_rule);
    ]

let report_json result =
  Mcx_util.Json_out.to_string
    (Mcx_util.Json_out.Obj
       [
         ("schema", Mcx_util.Json_out.Str "mcx-lint/1");
         ("files_scanned", Mcx_util.Json_out.Int result.files_scanned);
         ("files_typed", Mcx_util.Json_out.Int result.files_typed);
         ("count", Mcx_util.Json_out.Int (List.length result.findings));
         ("findings", Mcx_util.Json_out.List (List.map Finding.to_json result.findings));
         ( "stale_allows",
           Mcx_util.Json_out.List (List.map stale_allow_to_json result.stale_allows) );
       ])

let report_sarif result = Sarif.report result.findings
