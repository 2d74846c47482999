(** Wall-clock measurement for the runtime columns of Table II.

    All readings come from the OS monotonic clock ([CLOCK_MONOTONIC]), not
    [Unix.gettimeofday]: wall time can be stepped by NTP mid-measurement,
    which used to make a timed interval negative or inflated. *)

val monotonic_ns : unit -> int64
(** Monotonic nanoseconds since an arbitrary epoch. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f ()] once and returns the result together with the
    elapsed monotonic seconds. *)
