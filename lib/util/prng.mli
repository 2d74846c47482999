(** Deterministic, splittable pseudo-random number generation.

    All Monte Carlo experiments in this repository must be reproducible from a
    single integer seed, independently of the OCaml stdlib [Random] state.
    The generator is xoshiro256++ seeded through splitmix64, following the
    reference C implementations by Blackman and Vigna. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed. Equal seeds yield
    equal streams. *)

(** Structured 64-bit seeding keys.

    Experiments derive one generator per Monte Carlo trial from
    [(seed, experiment key, trial index)] alone, so a trial's stream never
    depends on evaluation order or scheduling — the property the parallel
    {!Pool} relies on for bit-identical output at any job count.

    Keys replace the historical [Prng.create (Hashtbl.hash (...))] idiom:
    [Hashtbl.hash] keeps only 30 bits, traverses large tuples partially
    and may change across OCaml versions, so distinct configurations could
    silently collide onto one stream. Mixing here is a full-width
    splitmix64-style avalanche, and for a fixed prefix key each [int] /
    [float] / [string] step is injective in the mixed-in value. *)
module Key : sig
  type t

  val root : int -> t
  (** Key of a master seed. *)

  val int : t -> int -> t
  val float : t -> float -> t
  val string : t -> string -> t

  val to_int64 : t -> int64
  (** The mixed 64-bit value (exposed for tests and logging). *)
end

val of_key : Key.t -> t
(** [of_key k] builds a generator whose stream depends on every component
    mixed into [k]. *)

val derive : Key.t -> int -> t
(** [derive k i] is [of_key (Key.int k i)]: the generator of trial [i]
    under experiment key [k]. Distinct indices yield distinct streams. *)

val split : t -> t
(** [split t] returns a new generator whose stream is statistically
    independent of [t]'s future output. [t] is advanced. Used to give each
    Monte Carlo sample its own stream so that per-sample work is insensitive
    to evaluation order. *)

val copy : t -> t
(** [copy t] duplicates the current state; both copies then produce the same
    stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val fill_bits53 : t -> int array -> unit
(** [fill_bits53 t a] fills [a] with the next [Array.length a] outputs,
    each cut to its top 53 bits: the same outputs in the same order as
    that many {!bits64} calls, [a.(k)] being
    [Int64.to_int (Int64.shift_right_logical (bits64 t) 11)], and [t] left
    in the same state. {!float} is that value times [2^-53], so
    [float t < p] iff the value is below [⌈p·2^53⌉], for any [p] in
    [\[0, 1\]]. Allocates nothing. Needs 63-bit native ints. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. @raise Invalid_argument if
    [bound <= 0]. *)

val float : t -> float
(** Uniform in [\[0, 1)], with 53 bits of precision. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [float t < p]: [true] with probability [p], always
    for [p >= 1], never for [p <= 0] or NaN. One draw either way. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** Uniform in the inclusive range [\[lo, hi\]]. @raise Invalid_argument if
    [hi < lo]. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher–Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniformly random element. @raise Invalid_argument on empty array. *)

val sample_without_replacement : t -> k:int -> n:int -> int list
(** [sample_without_replacement t ~k ~n] draws [k] distinct indices from
    [\[0, n)], in increasing order. @raise Invalid_argument if [k > n] or
    [k < 0]. *)
