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

    Each served request yields exactly one {!Access_log.record} — its
    cache outcome, status and stage durations — for the [on_access]
    sink; that record is the per-request observability artifact. With
    telemetry on, the batch stages are also spans of the trace. *)

type batch_stats = {
  label : string;
  requests : int;
  hits : int;  (** cache hits *)
  misses : int;  (** computed fresh *)
  coalesced : int;  (** folded onto an equal digest in the same batch *)
  errors : int;  (** parse, resolve or compute failures *)
  infeasible : int;  (** well-formed requests with no valid mapping *)
  evictions : int;  (** cache evictions caused by this batch *)
}

type t

val create :
  ?pool:Mcx_util.Pool.t ->
  ?cache_capacity:int ->
  ?on_access:(Access_log.record -> unit) ->
  unit ->
  t
(** [pool] defaults to {!Mcx_util.Pool.default} (honoring [MCX_JOBS]);
    [cache_capacity] to [MCX_CACHE_SIZE] (default 512). [on_access] receives
    one {!Access_log.record} per served request, strictly in
    request-index order after the batch finishes (never from a pool
    worker) — the [--access-log] sink. *)

val serve_batch : t -> label:string -> string list -> string list * batch_stats
(** Serve one batch of request lines. Returns one response line per
    request line (same order, no trailing newlines) plus the batch's
    stats. The cache persists across batches of the same server. *)

val exit_code : t -> int
(** 0 when every request succeeded, 4 ("completed with partial
    results") when any request yielded an error response. *)
