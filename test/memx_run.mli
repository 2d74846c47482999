(** Spawning the built [memx] binary from a test.

    The child sees a scrubbed environment: every inherited [MCX_*]
    variable is dropped, [MCX_JOBS=1] and [MCX_TRACE_TIMES=0] are set
    (the deterministic projection), and [env] entries override or extend
    both. Paths are relative to the test's working directory. *)

val read_file : string -> string
val write_file : string -> string -> unit

val contains : string -> string -> bool
(** [contains hay needle]: [needle] occurs in [hay]. *)

val run_memx :
  ?env:string list ->
  ?stdout_path:string ->
  ?status:int ->
  stderr_path:string ->
  string list ->
  unit
(** [run_memx ~stderr_path args] runs [memx args] with stdout written to
    [stdout_path] (default: discarded) and stderr to [stderr_path].
    [env] holds extra [NAME=value] entries. @raise Failure unless the
    child exits with [status] (default 0). *)
