(** Offline analysis of the observability artifacts: [memx report].

    Reads the two file formats the system emits — [mcx-access/1] JSONL
    access logs ({!Access_log}, one record per served request) and
    [mcx-trace/1] Chrome traces ({!Mcx_util.Telemetry}) — and renders
    per-stage latency tables, cache and status breakdowns, and a trace's
    per-phase summary.

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

val load_trace : times:bool -> string -> (Mcx_util.Texttable.t, string) result
(** The per-phase summary of an [mcx-trace/1] file
    ({!Mcx_util.Telemetry.Snapshot.of_chrome_trace}), under the [times]
    projection: the table the traced run printed to stderr at exit. The
    error names the file. *)
