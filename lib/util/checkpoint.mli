(** Checkpointed, fault-tolerant Monte Carlo sweeps.

    The paper-scale campaigns are short here (all 14 [memx experiment]
    entries at their default sample counts take about 6 s together at
    [MCX_JOBS=2] on a 2-vCPU VM; table2, the longest, about 2 s), but
    larger sample counts scale them linearly. This module makes their
    progress {e durable}: every completed trial is appended to a JSONL
    journal as soon as it finishes, and a re-run of the same experiment
    replays journaled trials instead of recomputing them — producing
    stdout byte-identical to an uninterrupted run, because each trial's PRNG
    stream depends only on [(seed, experiment, section, trial index)]
    (see {!Prng.Key}) and every journaled float round-trips exactly
    (see {!Json_out.float_repr}).

    {2 Activation}

    Nothing is journaled unless [MCX_CHECKPOINT=<dir>] is set (or [?dir]
    is passed to {!start}). The journal lives at [<dir>/journal.jsonl];
    one file serves every experiment in the process, with lines keyed by
    [(experiment, seed, section, trial index, result digest)].

    {2 Fault tolerance}

    Independently of journaling, trials run under {!Pool.map_isolated}: a
    raising trial degrades to a missing result instead of tearing down
    the sweep (it is not retried: trials are deterministic, so it would
    raise again). The failures are collected; {!finalize} writes them to
    a manifest and turns them into a nonzero exit status.
    [MCX_FAULT_RATE=<p>] injects {!Injected_fault} into trials through
    the seeded PRNG — keyed by [(seed, experiment, section, trial)], so
    injected failures are identical at any [MCX_JOBS].

    {2 Interruption}

    While a journal is open, SIGINT/SIGTERM switch the sweep into
    cooperative cancellation: in-flight trials finish (their journal
    lines are already flushed), queued trials are skipped, and the
    process exits 130/143 after printing the resume command on stderr.
    A journal whose last line was cut off mid-write is detected on load
    (parse + digest check) and only that trial re-runs. *)

exception Injected_fault
(** The deterministic fault raised by [MCX_FAULT_RATE] injection. *)

exception
  Config_mismatch of {
    path : string;
    journal_digest : string;
    current_digest : string;
  }
(** Raised when opening a journal whose header records a different
    [mcx-config/1] digest (see {!Config.digest}) than the current knob
    state — resuming would silently mix results produced under two
    configurations. Overridable with [--force-resume] /
    [MCX_FORCE_RESUME=1] ({!Config.force_resume}), which warns on
    stderr and proceeds; journals written before config snapshots
    existed also warn and proceed. A printer is registered, so an
    uncaught mismatch prints the recovery options. *)

(** Serialization for one trial's result. [decode (encode v)] must be
    [Some v] with [v] bit-exact — the byte-identical-resume guarantee
    rests on it. Build record codecs with {!Codec.conv}. *)
module Codec : sig
  type 'a t = { encode : 'a -> Json_out.t; decode : Json_out.t -> 'a option }

  val bool : bool t
  val int : int t

  val float : float t
  (** Exact round-trip (shortest-repr emission); NaN survives, but
      infinities decode as NaN ([Json_out] has no number form for them —
      avoid infinities in trial results). *)

  val string : string t
  val pair : 'a t -> 'b t -> ('a * 'b) t
  val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t
  val quad : 'a t -> 'b t -> 'c t -> 'd t -> ('a * 'b * 'c * 'd) t
  val list : 'a t -> 'a list t
  val array : 'a t -> 'a array t
  val option : 'a t -> 'a option t

  val conv : ('a -> 'b) -> ('b -> 'a) -> 'b t -> 'a t
  (** [conv to_repr of_repr repr] codes ['a] through a representation
      type (typically a tuple mirroring a record). *)
end

type t
(** One experiment run's view of the (process-wide) journal, plus its
    fault-injection configuration. Cheap to create; inert when
    checkpointing is disabled. *)

val start : ?dir:string -> experiment:string -> seed:int -> unit -> t
(** [start ~experiment ~seed ()] opens (or creates) the journal under
    [?dir], defaulting to [MCX_CHECKPOINT]; with neither set, journaling
    is off and only fault isolation/injection remain active. The journal
    file is opened and loaded once per directory per process; signal
    handlers are installed on first open. Reads [MCX_FAULT_RATE] here. *)

val journal_path : t -> string option
(** The journal file backing [t], when journaling is active. *)

val map :
  t ->
  pool:Pool.t ->
  section:string ->
  n:int ->
  codec:'a Codec.t ->
  (int -> 'a) ->
  'a option array
(** [map t ~pool ~section ~n ~codec f] is the checkpointed, fault-
    isolated analogue of [Pool.map pool n f]. [section] must determine
    every parameter the trial depends on besides the index (benchmark,
    rates, ...): journaled results are replayed by
    [(experiment, seed, section, index)]. Result [i] is [None] only when
    trial [i] failed (recorded for {!finalize}) or was cancelled by an
    interrupt — in which case [map] exits the process
    after printing the resume command, so callers never observe an
    interrupted array. Journal I/O and replayed/run/failed trial counts
    are recorded under [checkpoint.*] telemetry spans and counters. *)

val fold_completed :
  'a option array -> init:'b -> f:('b -> 'a -> 'b) -> 'b * int
(** [fold_completed outcomes ~init ~f] folds [f] over the completed
    trials strictly in index order (skipping [None]) and also returns
    how many completed — the denominator for honest partial-result
    rates. On a fully-completed sweep this is exactly the fold the
    drivers ran before fault isolation existed, so aggregate output is
    unchanged byte-for-byte. *)

type failure = {
  experiment : string;
  seed : int;
  section : string;
  trial : int;
  error : string;
  backtrace : string;
}

val failures : unit -> failure list
(** Trial failures recorded so far, oldest first. *)

val manifest_path : unit -> string
(** Where {!finalize} writes the failed-trial manifest:
    [<journal dir>/failed-trials.json], or [mcx-failed-trials.json] in
    the working directory when no journal is open. *)

val finalize : unit -> int
(** Degradation protocol, called by drivers after printing their
    (possibly partial) results: with no recorded failures, does nothing
    and returns 0. Otherwise writes the manifest
    (schema [mcx-failed-trials/1]), prints a summary to stderr and
    returns 4 — the exit status for "completed with partial results". *)

val reset : unit -> unit
(** Forget recorded failures (not the journal). For test harnesses that
    exercise the degradation path repeatedly in one process. *)
