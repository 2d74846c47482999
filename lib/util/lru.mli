(** Size-bounded least-recently-used cache, string-keyed.

    The serving layer memoizes defect-tolerant mapping results by
    canonical request digest; this is the bounded store behind that
    memo. Purely sequential — callers (the batch dispatcher) perform all
    lookups and insertions on one domain between {!Pool} fan-outs, so no
    locking is needed or provided.

    Every lookup and eviction is counted in the cache's own {!stats}
    record (always; the dispatcher reads its evictions per batch) and,
    when a [name] was given and telemetry is enabled, under the
    [<name>.hit] / [<name>.miss] / [<name>.eviction] {!Telemetry}
    counters of the trace. *)

type 'a t

type stats = {
  hits : int;  (** lookups that found a live entry *)
  misses : int;  (** lookups that found nothing *)
  insertions : int;  (** [put] calls that added a new key *)
  evictions : int;  (** entries dropped to respect [capacity] *)
}

val create : ?name:string -> capacity:int -> unit -> 'a t
(** [create ~capacity ()] holds at most [capacity] entries; the least
    recently used entry is evicted on overflow. [capacity = 0] is a
    legal degenerate cache: every lookup misses and [put] is a no-op
    (counted as an eviction of the incoming entry's predecessor never —
    i.e. not counted at all). [name] prefixes the telemetry counters.
    @raise Invalid_argument on negative capacity. *)

val capacity : 'a t -> int

val length : 'a t -> int
(** Current number of entries; always [<= capacity]. *)

val find : 'a t -> string -> 'a option
(** Lookup; a hit promotes the entry to most-recently-used and is
    counted, a miss is counted. *)

val peek : 'a t -> string -> 'a option
(** Lookup without touching recency or counters (tests, introspection). *)

val put : 'a t -> string -> 'a -> unit
(** Insert or replace; either way the key becomes most-recently-used.
    When a new key pushes the cache over capacity the LRU entry is
    evicted (and counted). *)

val to_list : 'a t -> (string * 'a) list
(** Entries most-recently-used first — the exact eviction order,
    exposed so tests can check LRU discipline against a model. *)

val stats : 'a t -> stats
