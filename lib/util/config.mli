(** The six [MCX_*] knobs: one validated environment read each.

    This file is the only sanctioned environment-read site (enforced by
    the [raw-env-read] lint rule). Command-line flags do not pass
    through here: [memx] hands each flag to the code that uses it, which
    falls back to the accessor when the flag is absent.

    {2 Validation}

    A set but malformed knob ([MCX_JOBS=abc], [MCX_SAMPLES=0]) is a
    hard error: the accessor raises {!Invalid} naming the knob, the bad
    value and the expected form — never a silent fallback to the
    default. A set-but-empty (or whitespace-only) variable counts as
    unset, so [MCX_FOO="" cmd] and test harnesses using
    [Unix.putenv "MCX_FOO" ""] clear a knob. Accessors re-read the
    environment on every call; nothing is cached. *)

exception
  Invalid of {
    knob : string;
    value : string;
    expected : string;
  }
(** Raised by every accessor when its knob is set to a value it
    rejects. A printer is registered, so an uncaught [Invalid] names the
    knob, the offending value and the expected form. *)

val jobs : unit -> int option
(** [MCX_JOBS] — worker-domain count for {!Pool}; [None] when unset.
    Results are job-count-invariant. *)

val jobs_resolved : unit -> int
(** {!jobs}, defaulted to [Domain.recommended_domain_count ()] and
    clamped to [\[1, 64\]] — exactly what [Pool.default_jobs] returns. *)

val trace : unit -> string option
(** [MCX_TRACE] — Chrome-trace output path; [None] disables tracing. *)

val trace_times : unit -> bool
(** [MCX_TRACE_TIMES] — [false] (["0"]/["false"]) switches the trace
    summary and access logs to the deterministic projection (durations
    dropped); default [true]. *)

val cache_size : unit -> int
(** [MCX_CACHE_SIZE] — serve-layer result-cache capacity in entries
    (default 512, [0] disables caching). Responses are cache-invariant. *)

val samples : unit -> int option
(** [MCX_SAMPLES] — Monte Carlo sample-count override for
    [memx experiment]; [None] means each experiment's paper-scale
    default. *)

val golden_regen : unit -> string option
(** [MCX_GOLDEN_REGEN] — directory the golden-output tests regenerate
    into instead of checking; [None] (the default) checks. *)

type error = { knob : string; value : string; expected : string }

val errors : unit -> error list
(** Every knob whose current value is malformed, in the order above —
    the startup-validation sweep binaries run before doing work. *)
