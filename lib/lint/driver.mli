(** Walks the scanned trees, runs the source and typed rules, and filters
    findings through the suppression mechanisms. *)

type config = {
  root : string;  (** absolute repo root *)
  paths : string list;  (** repo-relative files/dirs to scan *)
  only : string list;  (** restrict to these rule ids; [] = all *)
  allow_file : string option;  (** repo-relative allowlist, e.g. [Some "lint.allow"] *)
}

exception Missing_cmt of string list
(** Scanned [.ml] files (repo-relative) without a [.cmt] under
    [_build/default]: the typed rules cannot judge them, so the run is
    incomplete. [dune build @default @check] writes every one. *)

val default_paths : string list
(** [lib bin test] *)

val default_config : root:string -> config

val find_root : unit -> string option
(** Nearest ancestor of [Sys.getcwd ()] containing a [dune-project]. *)

type stale_allow = {
  sa_file : string;  (** source file, or the [lint.allow] path itself *)
  sa_line : int;
  sa_rule : string;  (** ["*"] for allow-everything entries *)
}

type result = {
  findings : Finding.t list;
  files_scanned : int;
  files_typed : int;  (** scanned .ml files, each linted through its .cmt *)
  stale_allows : stale_allow list;
      (** allow spans/entries that covered no finding ([--check-allows]) *)
}

val run : config -> result
(** Each [.cmt] is read once per (path, digest) per process, so repeated
    runs over one build tree re-read only recompiled modules. Entries
    that vanish or dangle mid-walk are skipped.
    @raise Invalid_argument when [config.only] names an unknown rule.
    @raise Missing_cmt when a scanned [.ml] that parses has no [.cmt]. *)

val report_text : result -> string
(** One [file:line:col [rule-id] message] line per finding plus a
    summary trailer. *)

val report_json : result -> string
(** Compact JSON, schema [mcx-lint/1]. *)

val report_sarif : result -> string
(** SARIF 2.1.0 (see {!Sarif}). *)
