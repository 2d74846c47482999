(** Explicit truth tables for small arities.

    Used by the benchmark generators (which define circuits functionally),
    for robust complementation of multi-output benchmarks, and as the
    containment oracle of joint minimization. Bounded to arity 22 (4M
    entries). *)

type t

val arity : t -> int

val of_fun_int : arity:int -> (int -> bool) -> t
(** Tabulate from the integer encoding of the assignment: bit [i] of the
    index is variable [i]. @raise Invalid_argument if arity is negative or
    greater than 22. *)

val get : t -> int -> bool
(** Value at an assignment index. @raise Invalid_argument out of range. *)

val minterm_indices : t -> int list
(** Indices of the ON-set, ascending. *)

val complement : t -> t

val of_cover : Cover.t -> t
(** Tabulate a cover. @raise Invalid_argument if the cover's arity exceeds
    the bound. *)

val covers : t -> Cube.t -> bool
(** [covers t c]: every minterm of [c] is in the ON-set, checked by walking
    them. @raise Invalid_argument on arity mismatch. *)
