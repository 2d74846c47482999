(** Low-overhead observability for the synthesis/mapping pipeline: one
    store of {e labeled} metric families — counters, gauges and
    log2-bucketed duration histograms — fed by nested spans, named
    counters and the labeled recording calls below. Four renderers read
    one {!snapshot}: the per-phase summary table, the Chrome trace, the
    OpenMetrics/Prometheus text and the versioned [mcx-metrics/1] JSON.

    {2 Families}

    Every value is a named family with a sorted label set, suitable for
    scraping, diffing between runs ([memx report --diff]) and shipping to
    a metrics backend. {!span} and {!observe_ns} record into the
    histogram family [mcx_telemetry_span_ns{span="<name>"}], and {!count}
    into the counter family [mcx_telemetry_counter{name="<name>"}]; both
    go straight in through a name-keyed lookup. {!inc}, {!set} and
    {!observe} record into any other family.

    {2 Recording model}

    Every domain records into its own buffer (domain-local storage), so
    instrumented code inside {!Pool} workers never contends on a lock.
    A {!snapshot} merges the buffers {e keyed} by (family, labels) with
    commutative sums, so the merged value cannot depend on which domain
    executed which trial: with the deterministic per-trial work of the
    experiment harnesses, counter values and histogram observation
    counts are bit-identical at any [MCX_JOBS] value (durations are
    measurements and are not). Gauges are "current value" cells, not
    sums: they live in one mutex-guarded table and take the last value
    set.

    {2 Cost when disabled}

    All recording entry points first read one [bool ref]; when the store
    is off they return immediately — a load and a branch, no allocation.
    [span name f] calls [f] directly. The "disabled path allocates
    nothing" case in [test/test_telemetry.ml] is the regression guard
    for this path.

    {2 Gating and the [times] projection}

    Nothing records until {!enable} (or {!install} /
    {!install_from_env}, which the drivers call). Setting
    [MCX_TRACE=<path>] (or [memx --trace <path>]) enables collection,
    writes a Chrome trace-event JSON to [<path>] at exit (loadable in
    [about://tracing] / {{:https://ui.perfetto.dev}Perfetto}) and prints
    the per-phase summary to stderr — stdout stays byte-comparable.
    [MCX_TRACE_TIMES=0] ({!Config.trace_times}) selects the deterministic
    projection of every renderer: the summary keeps only name and
    calls/count columns, histogram series keep their observation count
    but drop sum and buckets, and families declared [~measured:true]
    (wall-clock gauges, environment facts like the pool size) are
    omitted. Under that projection the rendered bytes are identical at
    any [MCX_JOBS]. *)

type kind = Counter | Gauge | Histogram

val enabled : unit -> bool

val enable : ?events:bool -> unit -> unit
(** Start collecting. [events] additionally records one trace event per
    closed span (needed for the Chrome export; default [false]). Resets
    the trace epoch to now. *)

val disable : unit -> unit
(** Stop collecting; recorded data stays until {!reset}. *)

val reset : unit -> unit
(** Drop every recorded series, gauge, trace event and family
    declaration in every domain buffer. Only call while no {!Pool} batch
    is in flight. *)

(** {2 Spans and named counters} *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] times [f ()] between two monotonic-clock readings and
    records the duration under [mcx_telemetry_span_ns{span=name}]
    (count, sum, min, max, log2 histogram bucket, and a trace event when
    events are on). Spans nest; on an exception the open frame is closed
    and the exception re-raised. It is the only way to open a span, so
    none can be left open. *)

val count : ?n:int -> string -> unit
(** Add [n] (default 1) to [mcx_telemetry_counter{name=<name>}]. *)

val observe_ns : string -> int64 -> unit
(** Record one duration (nanoseconds) under [name] without the
    span/trace-event machinery — same aggregate as a span of that
    duration. Negative durations clamp to 0. *)

(** {2 Labeled families}

    [labels] defaults to the empty set; label order is irrelevant
    (series identity uses the name-sorted rendering).
    @raise Invalid_argument on invalid/duplicate label names or a kind
    mismatch with the family's declaration. *)

val valid_metric_name : string -> bool
(** [[a-zA-Z_:][a-zA-Z0-9_:]*] — the Prometheus metric-name grammar. *)

val valid_label_name : string -> bool
(** [[a-zA-Z_][a-zA-Z0-9_]*]; the reserved [le] label is also rejected
    (the histogram exporter owns it). *)

val declare : ?help:string -> ?measured:bool -> kind -> string -> unit
(** Register family metadata (kind, OpenMetrics [# HELP] text, and
    whether the family is a measurement to exclude from the
    deterministic projection). Recording into an undeclared family
    auto-declares it with no help and [measured = false]; a repeat
    [declare] refreshes help/measured. The span and counter families are
    always declared.
    @raise Invalid_argument on an invalid name or when the family was
    already declared (or used) with a different kind. *)

val inc : ?labels:(string * string) list -> ?n:int -> string -> unit
(** Add [n] (default 1) to a counter series. *)

val set : ?labels:(string * string) list -> string -> float -> unit
(** Set a gauge series to a value (last write wins across the process). *)

val observe : ?labels:(string * string) list -> string -> int64 -> unit
(** Record one duration into a histogram series. Negative durations
    clamp to 0. *)

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

  type value = Counter of int | Gauge of float | Histogram of hist

  type series = { labels : (string * string) list; value : value }
  (** [labels] sorted by label name. *)

  type family = {
    name : string;
    kind : kind;
    help : string;
    measured : bool;
    series : series list;  (** sorted by rendered label set *)
  }

  type t

  val families : t -> family list
  (** Sorted by family name; families without series are absent. *)

  val family : t -> string -> family option

  val spans : t -> (string * hist) list
  (** The [mcx_telemetry_span_ns] series by span name, sorted by name. *)

  val counters : t -> (string * int) list
  (** The [mcx_telemetry_counter] series by counter name, sorted by name. *)

  val merge : t -> t -> t
  (** Keyed, order-independent for counters and histograms: [merge a b]
      and [merge b a] render the same. A gauge present in both takes
      [b]'s value. *)

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
      {!install} passes the full snapshot so a trace records the knob
      state that produced it. Schema documented in EXPERIMENTS.md. *)

  val to_openmetrics : ?times:bool -> t -> string
  (** Prometheus/OpenMetrics text exposition: [# HELP] (when non-empty)
      and [# TYPE] per family, one sample line per series, ending with
      [# EOF]. Histogram series render cumulative [_bucket] lines
      ([le] = the bucket's exclusive ns upper bound, last ["+Inf"]),
      then [_sum] and [_count]; trailing all-zero buckets are elided
      (the cumulative reading is unchanged). With [times = false] only
      the [_count] line of a histogram is emitted and [measured]
      families are dropped. *)

  val to_json : ?times:bool -> ?config:Json_out.t -> t -> Json_out.t
  (** The [mcx-metrics/1] document (schema in EXPERIMENTS.md). Histogram
      buckets are sparse [[index, count]] pairs; with [times = false],
      histogram [sum_ns]/[buckets] and [measured] families are omitted.
      [?config] (an [mcx-config/1] snapshot) is emitted as a [config]
      member after [schema] — callers on the deterministic projection
      should pass {!Config.snapshot}[ ~semantic_only:true ()] so the
      document stays byte-identical across job counts. *)
end

val snapshot : unit -> Snapshot.t
(** Merge every domain buffer and the gauge table into one snapshot.
    Only call while no {!Pool} batch is in flight (drivers call it at
    exit). *)

(** {2 Driver hooks} *)

val install : ?out:out_channel -> trace:string -> unit -> unit
(** Enable with events and register an exit hook that writes the Chrome
    trace to [trace] and prints the summary table to [out] (default
    stderr, so stdout stays byte-comparable). Honors [MCX_TRACE_TIMES=0]
    for the summary. *)

val install_from_env : unit -> unit
(** [install] from [MCX_TRACE] ({!Config.trace}) when set and
    non-empty; otherwise do nothing (telemetry stays off at a single
    branch per record call). *)
