(** Finding suppression: [@mcx.lint.allow "rule-id"] attributes collected
    as source spans, and the repo-root [lint.allow] path allowlist.

    Both mechanisms track {e usage}: a span or file entry that covered at
    least one finding is marked used. [--check-allows] reports the rest
    as stale. *)

type span = {
  rule : string option;  (** [None] allows every rule *)
  start_line : int;
  start_col : int;
  end_line : int;
  end_col : int;
  mutable used : bool;
}

val spans_of_structure : Parsetree.structure -> span list
val spans_of_signature : Parsetree.signature -> span list

val covers : span list -> Finding.t -> bool
(** Does any span cover the finding's rule at its position? Marks
    {e every} matching span used (redundant annotations are not reported
    stale). Whether a covering span may suppress the finding is
    {!Rules.attribute_suppresses}' call. *)

type file_entry = {
  prefix : string;
  allow_rule : string;  (** ["*"] = all *)
  entry_line : int;  (** 1-based line in [lint.allow] *)
  mutable entry_used : bool;
}

val parse_allow_file_contents : string -> file_entry list
(** One entry per line: [<path-prefix> <rule-id|*>]; [#] starts a comment. *)

val load_allow_file : string -> file_entry list
(** [] when the file does not exist. *)

val allowed_by_file : file_entry list -> Finding.t -> bool
(** Marks every matching entry used. *)
