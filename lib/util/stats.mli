(** Small statistics toolkit for the Monte Carlo harnesses. *)

val mean : float list -> float
(** Arithmetic mean. @raise Invalid_argument on empty input. *)

val percentile : float list -> float -> float
(** [percentile xs p] with [p] in [\[0, 100\]], linear interpolation between
    order statistics under [Float.compare]'s total order (NaNs sort
    first). @raise Invalid_argument on empty input or [p] out of
    range. *)

val median : float list -> float

val success_rate : bool list -> float
(** Fraction of [true] values, in percent (0..100), matching the paper's
    Psucc presentation. @raise Invalid_argument on empty input. *)
