(** Tautology checking and cover containment.

    The unate-recursive procedure of the espresso family (Brayton et al.,
    1984): unate variables are reduced away, Shannon expansion splits on
    the most binate variable, and a branch stops at the universe cube, at
    an empty or unate cover, or when its cubes are too few to fill the
    space. One kernel over flat word arrays serves every arity and
    allocates no cube per recursion. Its predicates drive irredundant
    cover extraction, and its hull query drives espresso's REDUCE. *)

val check : Cover.t -> bool
(** [check f] is true iff [f] is the constant-true function. *)

val cube_covered : Cube.t -> Cover.t -> bool
(** [cube_covered c f]: every minterm of [c] is covered by [f]. Implemented
    as a tautology check of the cofactor of [f] with respect to [c].
    @raise Invalid_argument on arity mismatch. *)

val cover_covered : Cover.t -> Cover.t -> bool
(** [cover_covered f g]: f implies g (every cube of [f] is covered by [g]).
    @raise Invalid_argument on arity mismatch when [f] has a cube. *)

val equal : Cover.t -> Cover.t -> bool
(** Mutual containment — semantic equality without truth-table expansion. *)

(** {1 Sweeps}

    Irredundant and reduce ask one cover many questions, often with one
    of its own cubes left out. A sweep lays the cover out for the kernel
    once and switches cubes off and on between questions. *)

type cubes
(** A list of cubes in the kernel's layout, each switched on or off, with
    the scratch space its queries reuse. Not safe to share between
    domains. *)

val of_cubes : arity:int -> Cube.t list -> cubes
(** Every cube switched on; cube [i] is the [i]-th of the list.
    @raise Invalid_argument on a cube of another arity. *)

val switch : cubes -> int -> bool -> unit
(** [switch t i on] switches cube [i] on or off. *)

val set : cubes -> int -> Cube.t -> unit
(** [set t i c]: cube [i] becomes [c], switched as it was.
    @raise Invalid_argument on arity mismatch. *)

val covers : cubes -> Cube.t -> bool
(** [covers t c]: the cubes switched on cover every minterm of [c].
    @raise Invalid_argument on arity mismatch. *)

val hull : cubes -> Cube.t -> Cube.t option
(** [hull t c]: the smallest cube containing the minterms of [c] that the
    cubes switched on miss, or [None] when they cover [c]: [c] with the
    literals of the smallest cube containing the complement (SCCC) of
    their cofactor by [c], computed by the unate recursive paradigm
    (Brayton et al., 1984) without building the complement.
    @raise Invalid_argument on arity mismatch. *)
