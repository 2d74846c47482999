(** Per-crosspoint defect maps and their random generation.

    §V of the paper: "we generate defective crossbars with assigning an
    independent defect probability/rate to each crosspoint that shows a
    uniform distribution".

    A map is two bit-packed planes over the junctions, one for stuck-open
    and one for stuck-closed defects; {!set} keeps at most one of the two
    bits set per junction. {!get} reads a junction in O(1); the mapping
    path reads the planes a word at a time ([Matching.cm_of_defects],
    [Redundant]), and {!digest} and {!count} visit only the defects. *)

type t

val create : rows:int -> cols:int -> t
(** All-functional map. @raise Invalid_argument on negative dimensions. *)

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> Junction.defect
val set : t -> int -> int -> Junction.defect -> unit
(** Counts [defect_map.mask_updates] once per call. *)

val random :
  Mcx_util.Prng.t -> rows:int -> cols:int -> open_rate:float -> closed_rate:float -> t
(** Each crosspoint is independently stuck-open with probability
    [open_rate], stuck-closed with [closed_rate], otherwise functional.
    Exactly [rows * cols] draws, one per junction in row-major order and
    at any rates (0 included), each the top 53 bits [k] of the next
    output ({!Mcx_util.Prng.fill_bits53}). The junction is stuck-open if
    [k < ⌈open_rate·2^53⌉] and otherwise stuck-closed if
    [k < ⌈(open_rate +. closed_rate)·2^53⌉], the second threshold taken
    from the float sum. Since [Prng.float] is [k·2^-53] and scaling by
    2^53 is exact, this is the test [Prng.float < open_rate], then
    [< open_rate +. closed_rate], on the same stream. Counts
    [defect_map.mask_updates] once per map, by the number of defects,
    and not at all for a defect-free map.
    @raise Invalid_argument unless both rates are numbers between 0 and 1
    whose sum is at most 1 (a NaN rate is rejected). *)

val count : t -> Junction.defect -> int
(** Number of junctions with the given state (a popcount of the planes). *)

val open_mask : t -> Mcx_util.Bmatrix.t
val closed_mask : t -> Mcx_util.Bmatrix.t
(** The stuck-open and stuck-closed planes: one bit per junction, set iff
    the junction has that defect. The map's own storage, so treat them as
    read-only; mutating one desynchronizes the map. A stuck-closed
    junction forces its whole horizontal line to logic 1 and poisons its
    vertical line (paper §IV.A), so callers test line kills against the
    stuck-closed plane word-parallel (see [Redundant]). *)

val digest : t -> string
(** Hex MD5 of the dimensions plus the per-junction defect grid — a
    content address for the map. Two maps digest equal iff they have the
    same dimensions and the same defect at every junction; the serving
    layer folds this into its canonical request key. *)

val pp : Format.formatter -> t -> unit
(** Grid rendering: [.] functional, [o] stuck-open, [x] stuck-closed. *)
