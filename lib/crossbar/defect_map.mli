(** Per-crosspoint defect maps and their random generation.

    §V of the paper: "we generate defective crossbars with assigning an
    independent defect probability/rate to each crosspoint that shows a
    uniform distribution". *)

type t

val create : rows:int -> cols:int -> t
(** All-functional map. @raise Invalid_argument on negative dimensions. *)

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> Junction.defect
val set : t -> int -> int -> Junction.defect -> unit

val random :
  Mcx_util.Prng.t -> rows:int -> cols:int -> open_rate:float -> closed_rate:float -> t
(** Each crosspoint is independently stuck-open with probability
    [open_rate], stuck-closed with [closed_rate], otherwise functional.
    @raise Invalid_argument if rates are negative or sum above 1. *)

val count : t -> Junction.defect -> int

val row_has_closed : t -> int -> bool
(** A stuck-closed junction forces its whole horizontal line to evaluate to
    logic 1 and poisons its vertical line, so these lines are unusable
    (paper §IV.A). Word-parallel over the packed stuck-closed mask. *)

val closed_mask : t -> Mcx_util.Bmatrix.t
(** The bit-packed stuck-closed mask, maintained incrementally by {!set}.
    One bit per junction; treat as read-only — mutating it desynchronizes
    the map. Lets callers combine line-kill checks with their own masks
    word-parallel (see [Redundant.restricted_cm]). *)

val usable_rows : t -> int list
val usable_cols : t -> int list
(** Lines free of stuck-closed defects, ascending. *)

val digest : t -> string
(** Hex MD5 of the dimensions plus the per-junction defect grid — a
    content address for the map. Two maps digest equal iff they have the
    same dimensions and the same defect at every junction; the serving
    layer folds this into its canonical request key. *)

val pp : Format.formatter -> t -> unit
(** Grid rendering: [.] functional, [o] stuck-open, [x] stuck-closed. *)
