(** Cubes (product terms) over a fixed set of input variables.

    A cube is a conjunction of literals; it is the unit the paper maps onto
    one horizontal crossbar line. Cubes are immutable.

    A cube is two bit masks — a care mask (variable carries a literal) and
    a polarity mask (that literal is positive) — stored
    {!Mcx_util.Bits.word_bits} variables per native word, so containment,
    intersection, distance, supercube and tautology cofactoring each cost
    a few AND/XOR/popcount operations per word. Polarity bits are zero on
    absent variables, and bits at positions [>= arity] are zero. *)

type t

val universe : int -> t
(** [universe n] is the cube over [n] variables with no literals (constant
    true product). @raise Invalid_argument if [n < 0]. *)

val make : arity:int -> f:(int -> Literal.t) -> t
(** The cube whose variable [i] carries [f i]. *)

val of_literals : Literal.t array -> t
(** Takes ownership of a copy of the array. *)

val of_string : string -> t
(** [of_string "1-0"] builds a 3-variable cube x0 x2'.
    @raise Invalid_argument on characters other than 0/1/-/2. *)

val to_string : t -> string

val arity : t -> int
(** Number of variables (including absent positions). *)

val words : t -> int
(** Number of words per mask. *)

val care_word : t -> int -> int
(** Raw care word [w], for the flat-array kernels ({!Tautology},
    {!Complement}, {!Truthtable}). *)

val pol_word : t -> int -> int

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
(** Shorter arity first, then lexicographic by variable with
    [Literal.compare]'s order (Neg < Pos < Absent). *)

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
(** [covers a b]: every minterm of [b] is a minterm of [a]. [false] on
    arity mismatch. *)

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
