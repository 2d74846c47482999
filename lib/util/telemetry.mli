(** Low-overhead observability for the synthesis/mapping pipeline: one
    store of name-keyed spans (log2-bucketed duration histograms), named
    counters and trace events. Two renderers read one {!snapshot}: the
    per-phase summary table and the Chrome trace.

    {2 Recording model}

    Every domain records into its own buffer (domain-local storage), so
    instrumented code inside {!Pool} workers never contends on a lock.
    A {!snapshot} merges the buffers {e keyed} by name with commutative
    sums, so the merged value cannot depend on which domain executed
    which trial: with the deterministic per-trial work of the experiment
    harnesses, counter values and span call counts are bit-identical at
    any [MCX_JOBS] value (durations are measurements and are not).

    {2 Cost when disabled}

    All recording entry points first read one [bool ref]; when the store
    is off they return immediately — a load and a branch, no allocation.
    [span name f] calls [f] directly. The "disabled path allocates
    nothing" case in [test/test_telemetry.ml] is the regression guard
    for this path.

    {2 Gating and the [times] projection}

    Nothing records until {!enable} (or {!install_from_env}, which the
    drivers call). Setting [MCX_TRACE=<path>] (or [memx --trace <path>])
    enables collection, writes a Chrome trace-event JSON to [<path>] at
    exit (loadable in [about://tracing] /
    {{:https://ui.perfetto.dev}Perfetto}) and prints the per-phase
    summary to stderr — stdout stays byte-comparable.
    [MCX_TRACE_TIMES=0] ({!Config.trace_times}) selects the deterministic
    projection of the summary: only name and calls/count columns. Under
    that projection the summary is byte-identical at any [MCX_JOBS]. *)

val enabled : unit -> bool

val enable : unit -> unit
(** Start collecting spans, counters and one trace event per closed
    span. Resets the trace epoch to now. *)

val disable : unit -> unit
(** Stop collecting; recorded data stays until {!reset}. *)

val reset : unit -> unit
(** Drop every recorded span, counter and trace event in every domain
    buffer. Only call while no {!Pool} batch is in flight. *)

(** {2 Spans and named counters} *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] times [f ()] between two monotonic-clock readings and
    records the duration under [name] (count, sum, min, max, log2
    histogram bucket, and a trace event). Spans nest; on an exception
    the open frame is closed and the exception re-raised. It is the only
    way to open a span, so none can be left open. *)

val count : ?n:int -> string -> unit
(** Add [n] (default 1) to the counter [name]. *)

val observe_ns : string -> int64 -> unit
(** Record one duration (nanoseconds) under [name] without the
    span/trace-event machinery — same aggregate as a span of that
    duration. Negative durations clamp to 0. *)

(** {2 Histogram geometry} (pure; exposed for tests) *)

val n_buckets : int
(** 64: bucket [i >= 1] holds durations in [[2{^i}, 2{^i+1}) ns]; bucket
    0 holds [[0, 2) ns]. *)

val bucket_of_ns : int64 -> int

val bucket_bounds : int -> int64 * int64
(** [(lo, hi)] with [lo] inclusive, [hi] exclusive ([Int64.max_int] for
    the last bucket). @raise Invalid_argument out of range. *)

(** {2 Snapshot and renderers} *)

module Snapshot : sig
  type hist = {
    count : int;
    sum_ns : int64;
    min_ns : int64;  (** smallest observation *)
    max_ns : int64;  (** largest observation *)
    buckets : int array;  (** length {!n_buckets} *)
  }

  type t

  val spans : t -> (string * hist) list
  (** Span histograms by name, sorted by name. *)

  val counters : t -> (string * int) list
  (** Counter totals by name, sorted by name. *)

  val merge : t -> t -> t
  (** Keyed and order-independent: [merge a b] and [merge b a] render
      the same. *)

  val percentile_ns : hist -> p:float -> int64
  (** The summary table's estimator: the upper edge of the histogram
      bucket holding the [p]-quantile ([0 < p <= 1]), clamped to the
      observed [[min_ns, max_ns]]. So [min_ns <= p50 <= p99 <= max_ns]
      always holds, and the estimate exceeds the true quantile by at most
      2x. 0 when [count = 0]. Callers that hold the raw durations use
      {!Stats.percentile} instead. *)

  val summary_table : ?times:bool -> t -> Texttable.t
  (** Per-phase summary: one row per span (calls, and with
      [times = true], total/mean/p50/p99/max), then a separator and one
      row per counter. With [times = false] (the deterministic
      projection) only name and calls/count columns are rendered. *)

  val chrome_trace : ?config:Json_out.t -> t -> Json_out.t
  (** Chrome trace-event JSON ([traceEvents] of ["ph": "X"] complete
      events, microsecond timestamps relative to {!enable}, one [tid]
      per recording domain, plus thread-name metadata; counter totals
      ride in [otherData]). [?config] (an [mcx-config/1] snapshot, see
      {!Config.snapshot}) is appended to [otherData] when given —
      {!install_from_env} passes the full snapshot so a trace records
      the knob state that produced it. Schema documented in
      EXPERIMENTS.md. *)
end

val snapshot : unit -> Snapshot.t
(** Merge every domain buffer into one snapshot. Only call while no
    {!Pool} batch is in flight (drivers call it at exit). *)

(** {2 Driver hook} *)

val install_from_env : unit -> unit
(** When [MCX_TRACE] ({!Config.trace}) is set and non-empty: open that
    file for writing, {!enable}, and register an exit hook that writes
    the Chrome trace to it and prints the summary table to stderr
    (honoring [MCX_TRACE_TIMES=0]). Otherwise do nothing (telemetry
    stays off at a single branch per record call).
    @raise Sys_error when the file cannot be opened; nothing is enabled
    then, so the driver can fail before doing any work. *)
