(* A fixed pool of worker domains draining a queue of batch-helper thunks.
   Each map call carves [0, n) into chunks claimed through an atomic
   counter; results land in an index-addressed array, so scheduling cannot
   influence what the caller observes. *)

type t = {
  jobs : int;
  queue : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  has_work : Condition.t;
  mutable stopped : bool;
  mutable domains : unit Domain.t array;
}

let clamp_jobs n = max 1 (min 64 n)

(* MCX_JOBS / the machine's core count select how much parallelism to
   use, never what gets computed: results are job-count-invariant (the
   "jobs 1 = jobs 4" tests). The knob lives in the Config registry; its
   resolution (env value or recommended_domain_count, clamped) is
   Config.jobs_resolved, behind the sanctioned Config barrier. *)
let default_jobs () = Config.jobs_resolved ()

(* Inside a worker task, nested map calls must not block on the shared
   queue (every worker could end up waiting for helpers nobody is free to
   run); they degrade to inline sequential execution instead. *)
let inside_worker = Domain.DLS.new_key (fun () -> false)

let worker pool () =
  Domain.DLS.set inside_worker true;
  let rec loop () =
    Mutex.lock pool.mutex;
    while Queue.is_empty pool.queue && not pool.stopped do
      Condition.wait pool.has_work pool.mutex
    done;
    match Queue.take_opt pool.queue with
    | Some task ->
      Mutex.unlock pool.mutex;
      task ();
      loop ()
    | None ->
      (* stopped and drained *)
      Mutex.unlock pool.mutex
  in
  loop ()

let create ?jobs () =
  let jobs = match jobs with Some n -> clamp_jobs n | None -> default_jobs () in
  let pool =
    {
      jobs;
      queue = Queue.create ();
      mutex = Mutex.create ();
      has_work = Condition.create ();
      stopped = false;
      domains = [||];
    }
  in
  if jobs > 1 then pool.domains <- Array.init (jobs - 1) (fun _ -> Domain.spawn (worker pool));
  pool

let jobs pool = pool.jobs

let record_metrics pool =
  (* The worker count is an environment fact (MCX_JOBS), not a result:
     marked measured so the deterministic metrics projection stays
     byte-identical across job counts. *)
  Telemetry.declare ~help:"pool workers (MCX_JOBS)" ~measured:true Telemetry.Gauge
    "mcx_pool_jobs";
  Telemetry.set "mcx_pool_jobs" (float_of_int pool.jobs)

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.stopped <- true;
  Condition.broadcast pool.has_work;
  Mutex.unlock pool.mutex;
  Array.iter Domain.join pool.domains;
  pool.domains <- [||]

(* Guarded by [default_mutex]; the process-wide default pool. *)
let default_pool = ref None [@@mcx.lint.allow "domain-toplevel-state"]
let default_mutex = Mutex.create ()

let default () =
  Mutex.lock default_mutex;
  let pool =
    match !default_pool with
    | Some pool -> pool
    | None ->
      let pool = create () in
      default_pool := Some pool;
      at_exit (fun () -> shutdown pool);
      pool
  in
  Mutex.unlock default_mutex;
  pool

let sequential_map n f = Array.init n f

let map pool n f =
  if n < 0 then invalid_arg "Pool.map: negative size";
  if n = 0 then [||]
  else if pool.jobs = 1 || n = 1 || Domain.DLS.get inside_worker then sequential_map n f
  else begin
    let results = Array.make n None in
    let first_error = Atomic.make None in
    let next = Atomic.make 0 in
    (* Small chunks keep the domains load-balanced when trial costs vary
       (mapping failures return early); 4 chunks per worker amortizes the
       atomic traffic. *)
    let chunk = max 1 ((n + (4 * pool.jobs) - 1) / (4 * pool.jobs)) in
    let rec consume () =
      let lo = Atomic.fetch_and_add next chunk in
      if lo < n then begin
        let hi = min n (lo + chunk) in
        (* Not a swallow: the first failure is stashed in [first_error] and
           re-raised with its backtrace after the join below. *)
        (try
           for i = lo to hi - 1 do
             results.(i) <- Some (f i)
           done
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           ignore (Atomic.compare_and_set first_error None (Some (e, bt)));
           (* abandon remaining chunks on error *)
           Atomic.set next n)
        [@mcx.lint.allow "hygiene-catchall"];
        consume ()
      end
    in
    let helpers = pool.jobs - 1 in
    let active = ref helpers in
    let done_mutex = Mutex.create () in
    let all_done = Condition.create () in
    let helper () =
      consume ();
      Mutex.lock done_mutex;
      decr active;
      if !active = 0 then Condition.signal all_done;
      Mutex.unlock done_mutex
    in
    Mutex.lock pool.mutex;
    if pool.stopped then begin
      Mutex.unlock pool.mutex;
      invalid_arg "Pool.map: pool is shut down"
    end;
    for _ = 1 to helpers do
      Queue.push helper pool.queue
    done;
    Condition.broadcast pool.has_work;
    Mutex.unlock pool.mutex;
    consume ();
    Mutex.lock done_mutex;
    while !active > 0 do
      Condition.wait all_done done_mutex
    done;
    Mutex.unlock done_mutex;
    (match Atomic.get first_error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.map (function Some v -> v | None -> assert false) results
  end

(* --- trial-level fault isolation ----------------------------------- *)

exception Cancelled

type 'a outcome =
  | Done of 'a
  | Skipped
  | Failed of { error : string; backtrace : string }

let map_isolated pool n f =
  let isolated i =
    (* Not a swallow: the failure is captured as a [Failed] outcome the
       caller must consume. Trials are deterministic, so one that raised
       would raise again: it is not retried. *)
    match f i with
    | v -> Done v
    | exception Cancelled -> Skipped
    | exception e ->
      let backtrace = Printexc.get_backtrace () in
      Telemetry.count "pool.trial.failed";
      Failed { error = Printexc.to_string e; backtrace }
  in
  map pool n isolated
