(** Deterministic domain pool for Monte Carlo fan-out.

    A fixed pool of OCaml 5 domains executes chunked maps over trial
    indices. Results are collected into an index-ordered array and folds
    run in index order, so as long as the per-index function is pure given
    its own inputs (each trial derives its PRNG from the trial index — see
    {!Prng.derive}), the output is bit-identical at any job count,
    including [jobs = 1].

    The pool size is taken from the [MCX_JOBS] environment variable when
    set (a positive integer), else from [Domain.recommended_domain_count].
    A pool of size 1 spawns no domains and runs everything inline. *)

type t

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns a pool of [jobs] workers ([jobs - 1] domains
    plus the calling domain, which participates in every batch). [jobs]
    defaults to {!default_jobs}; values are clamped to [1, 64]. *)

val default : unit -> t
(** The process-wide shared pool, created on first use with
    {!default_jobs} workers and shut down at exit. *)

val default_jobs : unit -> int
(** [MCX_JOBS] when set to a positive integer, else
    [Domain.recommended_domain_count ()], clamped to [1, 64]. *)

val jobs : t -> int
(** Number of workers (including the calling domain). *)

val map : t -> int -> (int -> 'a) -> 'a array
(** [map pool n f] is [[| f 0; ...; f (n-1) |]], with the calls distributed
    over the pool in chunks. [f] must not depend on shared mutable state.
    Exceptions raised by [f] are re-raised in the caller after the batch
    drains. Calls from inside a pool task run sequentially inline (no
    nested scheduling). *)

val shutdown : t -> unit
(** Stop and join the worker domains. Idempotent; the pool must not be
    used afterwards. *)

(** {2 Request-level fault isolation}

    {!map} tears the whole batch down on the first exception — right for
    Monte Carlo trials, which are deterministic and in-process, so a
    raising trial is a bug that must fail the run. The request service
    maps work that comes from outside the program: {!map_isolated}
    confines a failure to its own index, so one bad request becomes a
    {!Failed} outcome (the exception's message) instead of an exception
    that loses its batch. *)

type 'a outcome = Done of 'a | Failed of string

val map_isolated : t -> int -> (int -> 'a) -> 'a outcome array
(** [map_isolated pool n f] is {!map} with per-index isolation: index [i]
    runs [f i] and yields [Failed] if that raises. Failures are counted
    under the [pool.trial.failed] telemetry counter. *)
