(** Dense boolean matrices, bit-packed one bit per cell.

    The mapping algorithms of the paper operate on three boolean matrices: the
    function matrix (FM), the crossbar matrix (CM) and the matching matrix.
    Rows are packed into native machine words so the row-level predicates the
    Monte Carlo mapping loops live in — containment ([row_subset]),
    intersection, counting — run word-parallel: a handful of
    AND/NOT/popcount operations per {!Bits.word_bits} cells instead of a
    per-cell loop. Row iteration ({!iter_row_set}, {!iter_row_clear})
    visits only the cells asked for, one test per word and one
    count-trailing-zeros per cell, so a sparse row costs little more than
    its words; {!nor} builds a matrix from two others a word at a time,
    and {!set_word} writes a row word built elsewhere. *)

type t
(** A mutable [rows] x [cols] boolean matrix. *)

val create : rows:int -> cols:int -> bool -> t
(** [create ~rows ~cols fill] is a matrix with every entry set to [fill].
    @raise Invalid_argument if a dimension is negative. *)

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> bool
(** [get m i j] reads entry (i, j). @raise Invalid_argument out of bounds. *)

val set : t -> int -> int -> bool -> unit
(** [set m i j v] writes entry (i, j). @raise Invalid_argument out of bounds. *)

val set_word : t -> int -> int -> int -> unit
(** [set_word m i w bits] overwrites word [w] of row [i]: cell
    [(i, w * Bits.word_bits + b)] becomes bit [b] of [bits], for every [b]
    below {!Bits.word_bits}. The writer of whole rows built a word at a
    time (defect-map draws).
    @raise Invalid_argument on a bad row or word index, or when [bits]
    sets a padding bit, one past the last column of the row's last word:
    padding stays zero, which the word-parallel predicates rely on. *)

val copy : t -> t

val of_lists : bool list list -> t
(** Build from row-major lists. @raise Invalid_argument on ragged input or
    empty matrix. *)

val of_int_lists : int list list -> t
(** Convenience for writing test fixtures: nonzero is [true]. *)

val row : t -> int -> bool array
(** Extract row [i] as a fresh array. *)

val count : t -> int
(** Number of [true] entries. *)

val count_row : t -> int -> int
(** Number of [true] entries in row [i]. *)

val iter_row_set : t -> int -> (int -> unit) -> unit
(** [iter_row_set m i f] calls [f j] for every [true] cell (i, j), in
    ascending [j]; zero words cost one test each. Each word is read before
    [f] sees its cells, so [f] may write the row.
    @raise Invalid_argument on a bad row index. *)

val iter_row_clear : t -> int -> (int -> unit) -> unit
(** [iter_row_clear m i f] calls [f j] for every [false] cell (i, j), in
    ascending [j], under the same rules as {!iter_row_set}. *)

val row_subset : t -> int -> t -> int -> bool
(** [row_subset a i b j]: every [true] cell of row [i] of [a] is also [true]
    in row [j] of [b] — the FM-row-fits-CM-row matching kernel.
    @raise Invalid_argument on bad indices or mismatched column counts. *)

val row_intersects : t -> int -> t -> int -> bool
(** [row_intersects a i b j]: the two rows share at least one [true] cell. *)

val nor : t -> t -> t
(** [nor a b] is a fresh matrix whose cell is [true] iff it is [false] in
    both [a] and [b]: one complement-of-union per word.
    @raise Invalid_argument when the dimensions differ. *)

val equal : t -> t -> bool

val fold : (int -> int -> bool -> 'a -> 'a) -> t -> 'a -> 'a
(** Row-major fold over all entries. *)

val map_rows : t -> f:(int -> bool array -> 'a) -> 'a list
(** [map_rows m ~f] applies [f] to every row index and its contents. *)

val pp : ?one:string -> ?zero:string -> Format.formatter -> t -> unit
(** Print as a grid of 0/1 (or custom glyphs), one row per line. *)

val to_string : t -> string
(** [Fmt.str "%a" pp]. *)
