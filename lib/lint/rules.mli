(** The mcx-lint rule registry: every rule id, its synopsis, and the path
    scope it applies to. *)

type kind =
  | Source  (** Parsetree rule *)
  | Typed  (** Typedtree (.cmt) rule *)

type t = { id : string; synopsis : string; kind : kind }

val all : t list
val ids : string list
val mem : string -> bool

val applies : string -> string -> bool
(** [applies rule rel] — does [rule] fire in the file at repo-relative
    path [rel]? Files under [test/lint_fixtures/] are scoped as if they
    lived under [lib/] so lib-only rules can be exercised by fixtures. *)

val attribute_suppresses : string -> string -> bool
(** [attribute_suppresses rule rel] — can an [[\@mcx.lint.allow]]
    attribute silence [rule] in the file at [rel]? [false] inside [lib/]
    for the owner-only rules ([determinism-*], [raw-env-read],
    [output-print]): there the owner modules are the only sanctioned
    sites. [lint.allow] path entries apply regardless. *)

val starts_with : prefix:string -> string -> bool
