(** Walks the scanned trees, runs source, typed and interprocedural
    rules, and filters findings through the suppression mechanisms. *)

type config = {
  root : string;  (** absolute repo root *)
  paths : string list;  (** repo-relative files/dirs to scan *)
  only : string list;  (** restrict to these rule ids; [] = all *)
  allow_file : string option;  (** repo-relative allowlist, e.g. [Some "lint.allow"] *)
  with_typed : bool;  (** read .cmt files and run typed + interproc rules *)
}

val default_paths : string list
(** [lib bin bench test] *)

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
  files_typed : int;  (** sources that had a matching .cmt *)
  graph_modules : int;  (** compilation units in the whole-program call graph *)
  graph_nodes : int;
  stale_allows : stale_allow list;
      (** allow spans/entries that suppressed nothing and served as no
          propagation barrier this run ([--check-allows]) *)
}

val run : config -> result
(** Each [.cmt] is read once per (path, digest) per process, so repeated
    runs over one build tree re-read only recompiled modules. Entries
    that vanish or dangle mid-walk are skipped.
    @raise Invalid_argument when [config.only] names an unknown rule. *)

val report_text : result -> string
(** One [file:line:col [rule-id] message] line per finding (chains
    indented beneath) plus summary trailers. *)

val report_json : result -> string
(** Compact JSON, schema [mcx-lint/1]. *)

val report_sarif : result -> string
(** SARIF 2.1.0 (see {!Sarif}). *)
