(** Cubes (product terms) over a fixed set of input variables.

    A cube is a conjunction of literals; it is the unit the paper maps onto
    one horizontal crossbar line. Cubes are immutable.

    The representation is {!Cube_packed}: two bit masks (care / polarity)
    packed into native words, so containment, intersection and tautology
    cofactoring are word-parallel. This module adds the Literal-level and
    string-level API on top. *)

type t = Cube_packed.t

val universe : int -> t
(** [universe n] is the cube over [n] variables with no literals (constant
    true product). @raise Invalid_argument if [n < 0]. *)

val of_literals : Literal.t array -> t
(** Takes ownership of a copy of the array. *)

val of_string : string -> t
(** [of_string "1-0"] builds a 3-variable cube x0 x2'.
    @raise Invalid_argument on characters other than 0/1/-/2. *)

val to_string : t -> string

val arity : t -> int
(** Number of variables (including absent positions). *)

val get : t -> int -> Literal.t
(** Literal at variable [i]. @raise Invalid_argument out of range. *)

val set : t -> int -> Literal.t -> t
(** Functional update. *)

val literals : t -> (int * Literal.t) list
(** The non-absent positions, in increasing variable order. *)

val num_literals : t -> int
(** Count of non-absent positions — the number of NAND-plane switches the
    cube needs on its crossbar row. *)

val is_minterm : t -> bool
(** True when every variable is constrained. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** Mixes the packed words directly — no per-call string allocation. *)

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed on cubes through {!equal} and {!hash}. *)

val eval : t -> bool array -> bool
(** [eval c v] evaluates the conjunction on the assignment [v].
    @raise Invalid_argument on arity mismatch. *)

val pack_assignment : bool array -> int array
(** Pack an assignment once for repeated {!eval_packed} calls over the
    cubes of a cover. *)

val eval_packed : t -> int array -> bool
(** Evaluate against a packed assignment of at least the cube's arity. *)

val covers : t -> t -> bool
(** [covers a b]: every minterm of [b] is a minterm of [a]. *)

val intersect : t -> t -> t option
(** [None] when the cubes share no minterm. *)

val distance : t -> t -> int
(** Number of variables on which the cubes conflict (one [Pos], other
    [Neg]). Zero distance means the intersection is non-empty. *)

val supercube : t -> t -> t
(** Smallest cube containing both arguments. *)

val cofactor : t -> var:int -> value:bool -> t option
(** Shannon cofactor of the cube with respect to a variable value. [None] if
    the cube requires the opposite value (cofactor is empty); otherwise the
    cube with that variable freed. *)

val cofactor_wrt : t -> t -> t option
(** [cofactor_wrt g c]: [g] with every literal fixed by [c] removed; [None]
    when the cubes conflict. Word-parallel — the inner loop of the
    unate-recursive tautology check. @raise Invalid_argument on arity
    mismatch. *)

val complement_literals : t -> t
(** Complement every literal in place-wise fashion (used when negating
    inputs, e.g. De Morgan over a product). This is NOT the complement of
    the cube as a Boolean function. *)

val merge_adjacent : t -> t -> t option
(** Quine–McCluskey merge: if the cubes are identical except for exactly one
    variable where one is [Pos] and the other [Neg], return the merged cube
    with that variable [Absent]. *)

val sharp : t -> t -> t list
(** The sharp product [a # b]: a disjoint list of cubes covering exactly
    the minterms of [a] outside [b]. Returns [[a]] when the cubes are
    disjoint and [[]] when [b] covers [a]. @raise Invalid_argument on
    arity mismatch. *)

val minterms : t -> bool array list
(** Enumerate all satisfying assignments. Exponential in the number of
    absent variables — intended for small arities (tests, QM). *)

val pp : Format.formatter -> t -> unit
