(** Low-overhead observability for the synthesis/mapping pipeline: one
    store of named counters and trace events, one event per closed span.
    The event is the only record of a span's time. Two renderers read
    one {!snapshot}: the per-phase summary table, which computes each
    span name's statistics from its events, and the Chrome trace, which
    {!Snapshot.of_chrome_trace} reads back into a snapshot.

    {2 Recording model}

    Every domain records into its own buffer (domain-local storage), so
    instrumented code inside {!Pool} workers never contends on a lock.
    A {!snapshot} merges the counters {e keyed} by name with commutative
    sums and the events by (timestamp, domain, name), so the merged
    value cannot depend on which domain executed which trial: with the
    deterministic per-trial work of the experiment harnesses, counter
    values and span call counts are bit-identical at any [MCX_JOBS]
    value (durations are measurements and are not).

    A buffer holds at most 1,000,000 events. Spans closed after that are
    not recorded, only counted as dropped: the summary's calls are then
    the recorded events, and a [telemetry.dropped_events] row in its
    counter section gives the dropped count.

    {2 Cost when disabled}

    All recording entry points first read one [bool ref]; when the store
    is off they return immediately — a load and a branch, no allocation.
    [span name f] calls [f] directly. The "disabled path allocates
    nothing" case in [test/test_telemetry.ml] is the regression guard
    for this path.

    {2 Gating and the [times] projection}

    Nothing records until {!enable} (or {!install}, which [memx] calls
    with its [--trace] path, else [MCX_TRACE]). {!install} enables
    collection, writes a Chrome trace-event JSON to the path at exit
    (loadable in [about://tracing] /
    {{:https://ui.perfetto.dev}Perfetto}) and prints the per-phase
    summary to stderr — stdout stays byte-comparable.
    [MCX_TRACE_TIMES=0] ({!Config.trace_times}) selects the deterministic
    projection of the summary: only name and calls/count columns. Under
    that projection the summary is byte-identical at any [MCX_JOBS]. *)

val enabled : unit -> bool

val enable : unit -> unit
(** Start collecting counters and one trace event per closed span.
    Resets the trace epoch to now. *)

val disable : unit -> unit
(** Stop collecting; recorded data stays until {!reset}. *)

val reset : unit -> unit
(** Drop every recorded counter and trace event in every domain buffer.
    Only call while no {!Pool} batch is in flight. *)

(** {2 Spans and named counters} *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] times [f ()] between two monotonic-clock readings and
    records one trace event under [name]: its start and duration. Spans
    nest; on an exception the open frame is closed and the exception
    re-raised. It is the only way to open a span, so none can be left
    open. *)

val count : ?n:int -> string -> unit
(** Add [n] (default 1) to the counter [name]. *)

(** {2 Snapshot and renderers} *)

module Snapshot : sig
  type t

  type span = {
    calls : int;  (** recorded events *)
    total_ns : int;
    p50_ns : float;  (** {!Stats.percentile} 50 of the durations *)
    p99_ns : float;  (** {!Stats.percentile} 99 of the durations *)
    max_ns : int;
  }

  val spans : t -> (string * span) list
  (** Each span name's statistics over its events, sorted by name. *)

  val counters : t -> (string * int) list
  (** Counter totals by name, sorted by name. *)

  val merge : t -> t -> t
  (** Keyed and order-independent: [merge a b] and [merge b a] render
      the same. *)

  val summary_table : ?times:bool -> t -> Texttable.t
  (** Per-phase summary: one row per span name (calls, and with
      [times = true], total/mean/p50/p99/max of {!spans}), then a
      separator and one row per counter, then a
      [telemetry.dropped_events] row if a buffer dropped events. With
      [times = false] (the deterministic projection) only name and
      calls/count columns are rendered. *)

  val chrome_trace : t -> Json_out.t
  (** Chrome trace-event JSON ([traceEvents] of ["ph": "X"] complete
      events, microsecond timestamps relative to {!enable}, one [tid]
      per recording domain, plus thread-name metadata; counter totals
      and the dropped-event count ride in [otherData], whose [schema] is
      [mcx-trace/1]). Schema documented in EXPERIMENTS.md. *)

  val of_chrome_trace : Json_out.t -> (t, string) result
  (** Read a {!chrome_trace} back: its complete events, counters and
      dropped count. The microsecond times round back to the recorded
      nanoseconds, so [of_chrome_trace (chrome_trace s)] renders the
      same summary as [s]. [Error] names the first field that is
      missing or of the wrong type, or the schema. *)
end

val snapshot : unit -> Snapshot.t
(** Merge every domain buffer into one snapshot. Only call while no
    {!Pool} batch is in flight (drivers call it at exit). *)

(** {2 Driver hook} *)

val install : trace:string -> unit
(** Open [trace] for writing, {!enable}, and register an exit hook that
    writes the Chrome trace to it and prints the summary table to stderr
    (honoring [MCX_TRACE_TIMES=0]). Without it telemetry stays off at a
    single branch per record call.
    @raise Sys_error when the file cannot be opened; nothing is enabled
    then, so the driver can fail before doing any work. *)
