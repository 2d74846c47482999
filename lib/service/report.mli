(** Offline analysis of serving observability artifacts: [memx report].

    Ingests the three file formats the serving stack emits —
    [mcx-access/1] JSONL access logs ({!Access_log}), [mcx-metrics/1]
    snapshots ({!Mcx_util.Telemetry.Snapshot.to_json}) and [mcx-trace/1]
    Chrome traces ({!Mcx_util.Telemetry}) — and renders per-stage
    latency tables, cache-efficiency summaries and an A/B diff with a
    configurable regression threshold (the CI gate).

    Everything here is pure: loaders return values, renderers return
    {!Mcx_util.Texttable.t}; only the [memx] driver prints. *)

type stage_stat = {
  stage : string;
  count : int;
  total_ns : int64;
  mean_ns : int64;
  p50_ns : int64;  (** order statistics of the raw stage durations
      ({!Mcx_util.Stats.percentile}), so [p50_ns <= p95_ns <= max_ns] *)
  p95_ns : int64;
  max_ns : int64;
}

type summary = {
  source : string;  (** file path (or label) the summary came from *)
  records : int;
  by_status : (string * int) list;  (** sorted by status *)
  by_cache : (string * int) list;  (** sorted by outcome *)
  bytes_total : int;
  has_times : bool;
      (** every record carried stage durations (log written with
          [MCX_TRACE_TIMES] unset) *)
  stages : stage_stat list;  (** in {!Access_log.stage_names} order;
      all-zero when [has_times] is false *)
}

val summarize : source:string -> Access_log.record list -> has_times:bool -> summary

val load_access : string -> (summary, string) result
(** Parse an access-log file; the error quotes the first bad line's
    number. An empty file is a valid summary of zero records. *)

val access_tables : summary -> Mcx_util.Texttable.t list
(** Cache/status overview table, plus the per-stage latency table when
    the log has timing. *)

val metrics_table : Mcx_util.Json_out.t -> (Mcx_util.Texttable.t, string) result
(** Render a parsed [mcx-metrics/1] document: one row per series
    (name, type, labels, value/count, mean where a histogram has
    [sum_ns]). *)

val load_metrics : string -> (Mcx_util.Texttable.t, string) result

val trace_table : Mcx_util.Json_out.t -> (Mcx_util.Texttable.t, string) result
(** Aggregate a parsed [mcx-trace/1] Chrome trace's complete-span
    ([ph = "X"]) events by name: events, total/mean/max duration. *)

val load_trace : string -> (Mcx_util.Texttable.t, string) result

(** {2 A/B diff} *)

type finding = {
  severity : [ `Mismatch | `Regression ];
      (** [`Mismatch]: a deterministic field (record count, status or
          cache-outcome breakdown) differs — two replays of the same
          request stream should never do this. [`Regression]: a stage's
          mean latency grew past the threshold. *)
  what : string;
  detail : string;
}

val diff :
  ?threshold:float -> ?min_total_ns:int64 -> summary -> summary -> finding list
(** [diff old_run new_run] compares two access-log summaries (in that
    argument order). [threshold] (default 1.5) flags a
    stage whose new mean exceeds [threshold * old mean]; stages whose
    new total is below [min_total_ns] (default 50ms) are ignored as
    noise, as are latency comparisons when either log lacks timing.
    Empty result = no mismatch, no regression. *)

val diff_table : finding list -> Mcx_util.Texttable.t
