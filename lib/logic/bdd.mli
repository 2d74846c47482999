(** Reduced ordered binary decision diagrams.

    Exhaustive truth tables cap out around 20 inputs; the wider benchmarks
    (cordic's 23 inputs, and any user PLA) still need exact equivalence
    checking, tautology tests and model counting. This is a classic
    hash-consed ROBDD package, using the natural variable order
    x0 < x1 < … (inputs are already homogeneous here, so no reordering is
    implemented). Canonicity makes semantic equality a node comparison.

    The tables follow Brace, Rudell and Bryant, "Efficient implementation
    of a BDD package" (DAC 1990), and live in [int array]s, so no lookup
    boxes a key:
    - Nodes are integers indexing three arrays (variable, else child, then
      child). The {e unique table} that makes them canonical is one
      open-addressed array of node numbers, probed linearly, with twice as
      many slots as the node arrays have room for.
    - The {e computed table} memoizes [ite(f, g, h)] in four arrays (f, g,
      h, result) indexed directly by a hash of the triple. A new entry
      overwrites whatever held its slot. Losing an entry is safe: the
      table only caches results, and a result recomputed later is the
      same node, because the unique table hands out one node per
      (variable, else, then) triple.
    - A fresh manager has room for 128 nodes, a unique table of 256 slots
      and a computed table of 64, a few KB in all. The node arrays and
      both tables double together when the node arrays fill. *)

type manager
(** Owns the node arrays, the unique table and the computed table. Nodes
    from different managers must not be mixed (checked). *)

type t
(** A BDD rooted at some node of a manager. *)

val manager : n_vars:int -> unit -> manager
(** @raise Invalid_argument if [n_vars < 0]. *)

val n_vars : manager -> int

val bdd_true : manager -> t
val bdd_false : manager -> t
val var : manager -> int -> t
(** The projection function of variable [i]. @raise Invalid_argument when
    out of range. *)

val nvar : manager -> int -> t
(** Complement of {!var}. *)

val not_ : manager -> t -> t
val and_ : manager -> t -> t -> t
val or_ : manager -> t -> t -> t
val xor : manager -> t -> t -> t
val nand : manager -> t -> t -> t
val ite : manager -> t -> t -> t -> t
(** If-then-else; all operators are memoized. *)

val and_list : manager -> t list -> t
val or_list : manager -> t list -> t

val equal : t -> t -> bool
(** Semantic equality (canonical-node identity). *)

val is_true : t -> bool
val is_false : t -> bool

val eval : t -> bool array -> bool
(** @raise Invalid_argument on arity mismatch. *)

val size : t -> int
(** Number of distinct internal nodes reachable from the root. *)

val count_minterms : manager -> t -> float
(** Number of satisfying assignments over all [n_vars] variables (float:
    may exceed [max_int] for wide managers). *)

val of_cube : manager -> Cube.t -> t
(** @raise Invalid_argument if the cube's arity differs from [n_vars]. *)

val of_cover : manager -> Cover.t -> t
val of_mo_cover : manager -> Mo_cover.t -> t array
(** One BDD per output. *)

val cover_equal : Cover.t -> Cover.t -> bool
(** Convenience: build a manager and compare two covers semantically —
    works far beyond truth-table range. @raise Invalid_argument on arity
    mismatch. *)

val mo_cover_equal : Mo_cover.t -> Mo_cover.t -> bool
(** Output-wise {!cover_equal}. *)
