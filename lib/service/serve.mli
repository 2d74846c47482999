(** The batching, caching dispatcher behind [memx serve].

    A server value owns a {!Mcx_util.Pool} and a digest-keyed
    {!Mcx_util.Lru} cache of mapping results. Each batch of JSONL
    request lines is processed in three deterministic stages:

    + {b resolve} — every request is parsed and canonicalized
      ({!Canonical.resolve}) under [Pool.map_isolated], so one malformed
      request degrades to an error response instead of tearing the batch
      down;
    + {b coalesce} — requests are looked up in the cache in request
      order; distinct requests with equal canonical digests collapse
      onto one computation;
    + {b compute} — the remaining unique problems fan out over
      [Pool.map_isolated], results enter the cache in first-occurrence
      order, and responses are emitted in request order.

    Every stage is ordered by request index, never by completion, so a
    served batch is byte-identical at any [MCX_JOBS] value, and a
    response is byte-identical whether it was computed or replayed from
    the cache (responses carry no timing and no cache flags). Requests
    that set [deadline_ms] are the one documented exception: their
    status depends on measured wall time.

    Latency is recorded per request (and under the [serve.request]
    telemetry span name when telemetry is on); batch p50/p95 are order
    statistics of those raw durations ({!Mcx_util.Stats.percentile}). *)

type batch_stats = {
  label : string;
  requests : int;
  hits : int;  (** cache hits *)
  misses : int;  (** computed fresh *)
  coalesced : int;  (** folded onto an equal digest in the same batch *)
  errors : int;  (** parse, resolve or compute failures *)
  infeasible : int;  (** well-formed requests with no valid mapping *)
  evictions : int;  (** cache evictions caused by this batch *)
  elapsed_ns : int64;  (** batch wall time *)
  p50_ns : int64;
  p95_ns : int64;  (** per-request latency percentiles (never above the max) *)
}

type t

val default_cache_capacity : unit -> int
(** [MCX_CACHE_SIZE] when set to a non-negative integer, else 512. *)

val create :
  ?pool:Mcx_util.Pool.t ->
  ?cache_capacity:int ->
  ?on_access:(Access_log.record -> unit) ->
  unit ->
  t
(** [pool] defaults to {!Mcx_util.Pool.default} (honoring [MCX_JOBS]);
    [cache_capacity] to {!default_cache_capacity}. [on_access] receives
    one {!Access_log.record} per served request, strictly in
    request-index order after the batch finishes (never from a pool
    worker) — the [--access-log] sink. *)

val serve_batch : t -> label:string -> string list -> string list * batch_stats
(** Serve one batch of request lines. Returns one response line per
    request line (same order, no trailing newlines) plus the batch's
    stats. The cache persists across batches of the same server. *)

val batches : t -> batch_stats list
(** Stats of every served batch, oldest first. *)

val error_count : t -> int
(** Total error responses emitted so far. *)

val exit_code : t -> int
(** 0 when every request succeeded, 4 ("completed with partial
    results") when any request yielded an error response. *)

val stats_json : t -> Mcx_util.Json_out.t
(** The [mcx-serve-stats/1] document: totals, cache counters with hit
    rate, and per-batch rows (schema in EXPERIMENTS.md). *)

val summary_table : t -> Mcx_util.Texttable.t
(** Human-readable per-batch summary for the [--stats] stderr report. *)

val record_metrics : t -> unit
(** One-shot export of server state into the {!Mcx_util.Telemetry}
    store: the cache counters ({!Mcx_util.Lru.record_metrics}), the
    pool size ({!Mcx_util.Pool.record_metrics}) and the served batch
    count. Per-request counters ([mcx_serve_requests_total],
    [mcx_serve_cache_total]) and stage histograms ([mcx_serve_stage_ns])
    are recorded live by {!serve_batch} instead. No-op while
    {!Mcx_util.Telemetry.enabled} is false. *)
