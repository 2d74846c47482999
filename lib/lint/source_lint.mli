(** Untyped (Parsetree) rules: top-level mutable state, hand-rolled
    float-to-JSON formatting, catch-all exception handlers. *)

val run : file:string -> Parsetree.structure -> Finding.t list
(** [file] is the repo-relative path used for findings and rule scoping. *)
