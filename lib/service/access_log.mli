(** Structured per-request access records ([mcx-access/1]): the one
    record the serving stack keeps per request, read back by
    [memx report --access] ({!Report.load_access}).

    [memx serve --access-log <path>] writes one JSONL record per served
    request, in request-index order:

    {v
{"schema":"mcx-access/1","index":0,"id":"q1","source":"benchmark",
 "digest":"<hex>","cache":"miss","status":"ok","bytes":123,
 "parse_ns":1200,"resolve_ns":51000,"compute_ns":820000,"render_ns":900}
    v}

    Every field except the four stage durations is a pure function of
    the request stream and the cache state, so it is byte-identical at
    any [MCX_JOBS] and across cache-equivalent runs. The durations are
    measurements; with [times = false] (the CLI honors
    [MCX_TRACE_TIMES=0], mirroring the telemetry summary) they are
    omitted and the whole record is the deterministic projection.
    [digest] is absent exactly when the request never resolved
    ([cache = "none"], [status = "error"]). *)

type cache_outcome =
  | Hit  (** served from the cross-batch result cache *)
  | Miss  (** computed fresh *)
  | Coalesced  (** folded onto an equal digest earlier in the same batch *)
  | None_  (** request never reached the cache (parse/resolve failure) *)

type record = {
  index : int;  (** 0-based position in the batch *)
  id : string;
  source : string;  (** ["pla"], ["benchmark"], or ["invalid"] when unparsed *)
  digest : string option;  (** canonical content digest *)
  cache : cache_outcome;
  status : string;  (** the response's status string *)
  bytes : int;  (** rendered response-line length *)
  parse_ns : int64;
  resolve_ns : int64;
  compute_ns : int64;  (** cache-lookup time for hits, 0 for coalesced *)
  render_ns : int64;
}

val schema : string

val stage_names : string list
(** [["parse"; "resolve"; "compute"; "render"]] — the fixed stage order
    used by the record fields and the [memx report] tables. *)

val stage_ns : record -> string -> int64
(** Duration of one {!stage_names} stage.
    @raise Invalid_argument on an unknown stage. *)

val cache_outcome_to_string : cache_outcome -> string

val to_json : times:bool -> record -> Mcx_util.Json_out.t
(** Fixed field order (schema, index, id, source, digest?, cache,
    status, bytes, then the [*_ns] stage durations); [times = false]
    drops the durations. *)

val to_line : times:bool -> record -> string
(** Compact one-line rendering, no trailing newline. *)

val of_json : Mcx_util.Json_out.t -> (record, string) result
(** Lenient reader for [memx report]: absent durations read as 0 (see
    {!has_times}). *)

val has_times : Mcx_util.Json_out.t -> bool
(** Whether the record carries stage durations (i.e. was written with
    [times = true]). *)
