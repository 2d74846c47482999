(** The unified configuration plane: one typed registry for every
    [MCX_*] knob.

    Every reproducibility guarantee in this repository (bit-identity at
    any [MCX_JOBS], byte-identical checkpoint resume, cold-vs-warm serve
    equality) is conditional on the knob state a run was produced under.
    This module declares each knob once — name, type, default,
    validator, owning layer, whether it can change computed results —
    and is the {e only} sanctioned environment-read site outside this
    file (enforced by the [raw-env-read] lint rule). Reads go through
    typed accessors; command-line flags override the environment through
    {!set_flag}; and the whole state renders as a canonical
    [mcx-config/1] snapshot that the run artifacts embed (checkpoint
    journal header, trace metadata, metrics/stats documents, access-log
    records).

    {2 Validation}

    A set but malformed knob ([MCX_JOBS=abc], [MCX_FAULT_RATE=1.5]) is a
    hard error: the accessor raises {!Invalid} naming the knob, the bad
    value and the expected form — never a silent fallback to the
    default. A set-but-empty (or whitespace-only) variable counts as
    unset, so [MCX_FOO="" cmd] and test harnesses using
    [Unix.putenv "MCX_FOO" ""] clear a knob. Accessors re-read the
    environment on every call; nothing is cached.

    {2 Snapshots and digests}

    {!snapshot} renders every knob's effective value, provenance and
    default in declaration order (fixed field order via {!Json_out}).
    {!digest} is the MD5 of the (name, value) pairs only — provenance is
    excluded, so a value set by flag and the same value set by env
    digest identically. [~semantic_only:true] restricts both to the
    knobs that can change computed results ([MCX_FAULT_RATE],
    [MCX_SAMPLES], [MCX_GOLDEN_REGEN]); the operational knobs (job
    count, cache size, tracing, checkpoint placement) are excluded, so
    the semantic digest is byte-identical at [MCX_JOBS=1] vs [4] — the
    projection embedded in deterministic artifacts. *)

type provenance =
  | Default  (** neither environment nor flag set the knob *)
  | Env  (** read from the process environment *)
  | Flag  (** overridden by {!set_flag} (command-line flags win) *)

val provenance_name : provenance -> string
(** ["default"], ["env"] or ["flag"] — the snapshot rendering. *)

exception
  Invalid of {
    knob : string;
    value : string;
    expected : string;
  }
(** Raised by every accessor (and {!set_flag}, {!snapshot}, {!digest})
    when a knob is set to a value its validator rejects. A printer is
    registered, so an uncaught [Invalid] names the knob, the offending
    value and the expected form. *)

(** {1 Typed accessors}

    One per registered knob. Each re-reads flag-then-environment on
    every call and raises {!Invalid} on a malformed value. *)

val jobs : unit -> int option
(** [MCX_JOBS] — worker-domain count for {!Pool}; [None] when unset
    (the pool falls back to the machine's recommended domain count).
    Operational: results are job-count-invariant. *)

val jobs_resolved : unit -> int
(** {!jobs}, defaulted to [Domain.recommended_domain_count ()] and
    clamped to [\[1, 64\]] — exactly what [Pool.default_jobs] returns.
    The machine-dependent fallback lives here so the snapshot can
    render an unset [MCX_JOBS] as [null] (machine-independent digest)
    while the pool still sizes itself sensibly. *)

val checkpoint_dir : unit -> string option
(** [MCX_CHECKPOINT] — journal directory; [None] disables journaling.
    Operational: swept results are journal-invariant. *)

val fault_rate : unit -> float
(** [MCX_FAULT_RATE] — deterministic fault-injection probability in
    [\[0, 1\]] (default 0). Semantic: injected faults decide which
    trials fail, which changes the printed tables. *)

val trace : unit -> string option
(** [MCX_TRACE] — Chrome-trace output path; [None] disables tracing. *)

val trace_times : unit -> bool
(** [MCX_TRACE_TIMES] — [false] (["0"]/["false"]) switches summaries,
    metrics and access logs to the deterministic projection (durations
    dropped); default [true]. *)

val cache_size : unit -> int
(** [MCX_CACHE_SIZE] — serve-layer result-cache capacity in entries
    (default 512, [0] disables caching). Operational: responses are
    cache-invariant. *)

val samples : unit -> int option
(** [MCX_SAMPLES] — Monte Carlo sample-count override for
    [memx experiment]; [None] means each experiment's paper-scale default.
    Semantic: the sample count decides what the tables contain. *)

val golden_regen : unit -> string option
(** [MCX_GOLDEN_REGEN] — directory the golden-output tests regenerate
    into instead of checking; [None] (the default) checks. *)

val force_resume : unit -> bool
(** [MCX_FORCE_RESUME] — resume a checkpoint journal whose recorded
    config digest disagrees with the current one (default [false]; the
    [--force-resume] flag sets it). *)

(** {1 Flag overrides} *)

val set_flag : string -> string -> unit
(** [set_flag name value] records a command-line override for knob
    [name]; subsequent reads return it with provenance {!Flag}. The
    value is validated eagerly ({!Invalid} on a malformed one, so a bad
    [--cache-size] fails at parse time, not first use).
    [Invalid_argument] on an unregistered name. *)

val reset_flags : unit -> unit
(** Drop every {!set_flag} override (test harnesses). *)

(** {1 Diagnostics} *)

type error = { knob : string; value : string; expected : string }

val errors : unit -> error list
(** Every registered knob whose current (flag or env) value is
    malformed, in declaration order — the startup-validation sweep
    binaries run before doing work. *)

val unknown : unit -> (string * string) list
(** [MCX_*] environment variables that name no registered knob (likely
    typos), as [(name, value)] sorted by name. Empty (whitespace-only)
    values are skipped, mirroring the empty-is-unset knob convention. *)

(** {1 The mcx-config/1 snapshot} *)

type info = {
  name : string;
  ty : string;  (** ["int"], ["float"], ["bool"] or ["path"] *)
  layer : string;  (** owning subsystem, e.g. ["pool"], ["checkpoint"] *)
  semantic : bool;  (** can the knob change computed results? *)
  doc : string;
  default : Json_out.t;
  value : Json_out.t;  (** effective value ([default] when unset) *)
  prov : provenance;
}

val knobs : unit -> info list
(** Every registered knob with its effective value, in declaration
    order. Raises {!Invalid} on the first malformed one. *)

val snapshot : ?semantic_only:bool -> unit -> Json_out.t
(** The [mcx-config/1] document:
    [{"schema":"mcx-config/1","digest":d,"knobs":[...]}] with one entry
    per knob in declaration order, each
    [{"name","type","layer","semantic","provenance","value","default"}].
    [~semantic_only:true] keeps only the semantic knobs (and digests
    only them). Raises {!Invalid} on a malformed knob. *)

val digest : ?semantic_only:bool -> unit -> string
(** MD5 (hex) over the included knobs' (name, value) pairs in
    declaration order — provenance and docs excluded. *)
