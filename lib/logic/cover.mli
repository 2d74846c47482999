(** Single-output sum-of-products covers.

    A cover is a disjunction of {!Cube.t} over a fixed arity. This is the
    two-level form the paper's crossbar implements directly: one horizontal
    line per cube (NAND plane) plus an output line (AND plane). *)

type t

val create : arity:int -> Cube.t list -> t
(** @raise Invalid_argument if any cube has a different arity or [arity < 0]. *)

val empty : int -> t
(** The constant-false cover over [n] variables. *)

val top : int -> t
(** The constant-true cover: a single universe cube. *)

val arity : t -> int
val cubes : t -> Cube.t list
val size : t -> int
(** Number of cubes (the paper's product count P for this output). *)

val literal_count : t -> int
(** Total literals over all cubes (NAND-plane switch count). *)

val is_empty : t -> bool

val eval : t -> bool array -> bool
(** Disjunction of cube evaluations. *)

val add_cube : t -> Cube.t -> t
val union : t -> t -> t
(** @raise Invalid_argument on arity mismatch. *)

val of_strings : string list -> t
(** Build from PLA-style rows, e.g. [["1-0"; "01-"]]. All rows must share
    one length. @raise Invalid_argument on empty list (arity unknown). *)

val of_minterms : arity:int -> bool array list -> t
(** One cube per minterm. *)

val single_cube_containment : t -> t
(** Remove every cube covered by another single cube of the cover. The
    survivors come in literal-count order, fewest first, ties in input
    order; of equal cubes the last copy survives, at that copy's place. A
    cheap but incomplete redundancy cleanup. *)

val sharp : t -> t -> t
(** Cover difference [f # g]: a cover of exactly the minterms of [f] not
    in [g] (built from disjoint cube sharps; not minimized). Computes
    OFF-sets as [top n # f]. @raise Invalid_argument on arity mismatch. *)

val equal_semantics : t -> t -> bool
(** Exhaustive truth-table equality — exponential, for tests and small
    arities. @raise Invalid_argument on arity mismatch or arity > 22. *)

val pp : Format.formatter -> t -> unit
