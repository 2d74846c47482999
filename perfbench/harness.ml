(* Shared machinery of the repository benchmark: the clock, exact order
   statistics, the probe that times calls into library layers during a
   traced run, the output gate, set-up measured in child processes, and
   the two run loops.

   A workload is split into units (a Table II trial, a synthesized
   function, a served batch). Its inputs repeat after a fixed number of
   units, its period, and every loop runs whole periods only: a faster
   program runs more periods of the same inputs, never other inputs. The
   loops time each unit's [step] and judge its outputs with [check]
   afterwards, outside every timed region. *)

module Json = Mcx.Util.Json_out

let now_ns () = Int64.to_int (Mcx.Util.Timing.monotonic_ns ())

(* Processor time of this process, user and system. The workloads' steps
   run on one thread and never wait, so on an idle machine this is their
   wall time; on a shared virtual machine it leaves out the time the
   hypervisor gives to other guests instead (steal time). *)
let cpu_ns () = int_of_float (Sys.time () *. 1e9)

(* A Suite circuit rebuilt from its definition, bypassing the Suite memo
   so every call does the work. *)
let cover_of_source = function
  | Mcx.Benchmarks.Suite.Arithmetic build -> build ()
  | Mcx.Benchmarks.Suite.Synthetic params -> Mcx.Benchmarks.Synthetic.generate params

(* --- order statistics ------------------------------------------------- *)

(* Nearest-rank percentile: the smallest sample with at least a [p] share
   of the samples at or below it. It is always one of the measured
   values, so min <= p50 <= p90 <= max holds by construction. *)
let percentile samples p =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Harness.percentile: no samples";
  if not (p >= 0. && p <= 1.) then invalid_arg "Harness.percentile: p outside [0, 1]";
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  (* The epsilon keeps a product like 9.000000000000002 at rank 9. *)
  let rank = int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

(* --- per-layer probe -------------------------------------------------- *)

(* Every library function the workloads time, in report order. Each
   yields <name>.calls, <name>.ms (self time), <name>.p50_us and
   <name>.p90_us. *)
let timed_layers =
  [
    "suite.build"; "function_matrix.build"; "defect_map.random"; "matching.cm_of_defects";
    "hybrid.map"; "exact.map"; "cost.dual_choice"; "layout.of_cover"; "tech_map.map_mo";
    "multilevel.place"; "serve.serve_batch"; "wire.request_of_line"; "canonical.resolve";
    "mapper.map_cover"; "mcx.verify"; "wire.response_to_line";
  ]

(* Work counts recorded next to the timed calls. *)
let counted =
  [
    "hybrid.found"; "hybrid.backtracks"; "hybrid.relocations"; "exact.found";
    "tech_map.gates"; "tech_map.inner_connections"; "synth.products"; "synth.dual_chosen";
    "serve.cache.hits"; "serve.cache.misses"; "serve.cache.coalesced";
    "serve.cache.evictions";
  ]

module Probe = struct
  type layer = { mutable calls : int; mutable total_ns : int; mutable samples_ns : float list }

  let enabled = ref false
  let inside = ref false
  let layers : (string, layer) Hashtbl.t = Hashtbl.create 32
  let counters : (string, int) Hashtbl.t = Hashtbl.create 16

  let record name ns =
    if not (List.mem name timed_layers) then invalid_arg ("Probe: unlisted layer " ^ name);
    let l =
      match Hashtbl.find_opt layers name with
      | Some l -> l
      | None ->
        let l = { calls = 0; total_ns = 0; samples_ns = [] } in
        Hashtbl.replace layers name l;
        l
    in
    l.calls <- l.calls + 1;
    l.total_ns <- l.total_ns + ns;
    l.samples_ns <- float_of_int ns :: l.samples_ns

  (* A timed call may not contain another, so each layer's total is its
     self time and the totals add up to at most the traced wall time. *)
  let call name f =
    if not !enabled then f ()
    else begin
      if !inside then invalid_arg ("Probe.call: nested timed call to " ^ name);
      inside := true;
      let t0 = now_ns () in
      let finish () =
        record name (now_ns () - t0);
        inside := false
      in
      match f () with
      | v ->
        finish ();
        v
      | exception e ->
        finish ();
        raise e
    end

  let count name n =
    if !enabled then begin
      if not (List.mem name counted) then invalid_arg ("Probe: unlisted count " ^ name);
      Hashtbl.replace counters name (n + Option.value ~default:0 (Hashtbl.find_opt counters name))
    end

  let counter name = Option.value ~default:0 (Hashtbl.find_opt counters name)
end

(* --- workloads and the output gate ------------------------------------ *)

type verdict = {
  code : string;  (** the operation's output, compared with the recorded one *)
  problem : string option;  (** why the output is wrong, if it is *)
}

type instance = {
  period : int;
      (** units after which the inputs repeat: unit [i] and unit
          [i + period] do the same work with the same result *)
  ops_per_unit : int;
  traced_periods : int;  (** fixed length of the traced run *)
  setup : unit -> unit;
  prepare : int -> unit;  (** client-side work before unit [i]; never timed *)
  step : int -> unit;  (** runs unit [i]; the loops time this *)
  check : int -> verdict list;  (** judges unit [i]; never timed *)
}

let period_ops inst = inst.period * inst.ops_per_unit

type gate = {
  outputs : string option array;
      (** one period of outputs: the recorded ones, or else those of the
          run's first period, which later periods must reproduce *)
  mutable attempted : int;
  mutable failed : int;
}

let gate inst recorded =
  let outputs =
    match recorded with
    | Some lines -> Array.map Option.some lines
    | None -> Array.make (period_ops inst) None
  in
  { outputs; attempted = 0; failed = 0 }

(* The recorded outputs of one period, or [None] when none were recorded
   for this seed. A file of another length was recorded for other inputs
   and is refused. *)
let load_expected inst path =
  if not (Sys.file_exists path) then None
  else begin
    let lines =
      In_channel.with_open_text path In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (fun line -> line <> "")
      |> Array.of_list
    in
    if Array.length lines <> period_ops inst then
      failwith
        (Printf.sprintf "%s holds %d outputs, one period is %d operations" path
           (Array.length lines) (period_ops inst));
    Some lines
  end

let judge gate ~first_op verdicts =
  List.iteri
    (fun j v ->
      let op = first_op + j in
      gate.attempted <- gate.attempted + 1;
      let slot = op mod Array.length gate.outputs in
      let problem =
        match (v.problem, gate.outputs.(slot)) with
        | (Some _ as p), _ -> p
        | None, Some want when not (String.equal want v.code) ->
          Some (Printf.sprintf "output %s, expected %s" v.code want)
        | None, Some _ -> None
        | None, None ->
          gate.outputs.(slot) <- Some v.code;
          None
      in
      match problem with
      | None -> ()
      | Some msg ->
        if gate.failed < 10 then Printf.eprintf "perfbench: op %d: %s\n%!" op msg;
        gate.failed <- gate.failed + 1)
    verdicts

let all_failed inst msg = List.init inst.ops_per_unit (fun _ -> { code = "!"; problem = Some msg })

(* Runs unit [i] and returns its step time on [clock]; a raising step or
   check fails every operation of the unit. *)
let run_unit ~clock inst gate i =
  inst.prepare i;
  let t0 = clock () in
  let raised = match inst.step i with () -> None | exception e -> Some e in
  let dt = clock () - t0 in
  let verdicts =
    match raised with
    | Some e -> all_failed inst ("raised " ^ Printexc.to_string e)
    | None -> (
      match inst.check i with
      | v -> v
      | exception e -> all_failed inst ("check raised " ^ Printexc.to_string e))
  in
  judge gate ~first_op:(i * inst.ops_per_unit) verdicts;
  dt

(* --- processes and memory --------------------------------------------- *)

(* Runs [f] in a forked child and returns its result. The child starts
   from this process's state, so set-up that fills process-wide memo
   tables is measured cold every time if no set-up has run here yet. *)
let in_child f =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let code =
      match f () with
      | v ->
        let s = Printf.sprintf "%h" v in
        ignore (Unix.write_substring wr s 0 (String.length s));
        0
      | exception e ->
        prerr_endline ("perfbench: child process: " ^ Printexc.to_string e);
        1
    in
    Unix._exit code
  | pid -> (
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let text = In_channel.input_all ic in
    close_in ic;
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED 0 -> float_of_string text
    | Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _ ->
      failwith "perfbench: child process failed")

(* Forks a helper that keeps this process's present state: each call of
   the returned [sample] has the helper run [f] in a child of its own, so
   later calls still start from the state at the time of [sampler], however
   this process changed since. [stop] ends the helper and waits for it. *)
let sampler f =
  flush_all ();
  let req_rd, req_wr = Unix.pipe ~cloexec:true () in
  let res_rd, res_wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close req_wr;
    Unix.close res_rd;
    let requests = Unix.in_channel_of_descr req_rd in
    let results = Unix.out_channel_of_descr res_wr in
    let rec serve () =
      match input_char requests with
      | _ ->
        Printf.fprintf results "%h\n%!" (in_child f);
        serve ()
      | exception End_of_file -> 0
    in
    Unix._exit (match serve () with code -> code | exception _ -> 1)
  | pid ->
    Unix.close req_rd;
    Unix.close res_wr;
    let requests = Unix.out_channel_of_descr req_wr in
    let results = Unix.in_channel_of_descr res_rd in
    let sample () =
      output_char requests 's';
      flush requests;
      match input_line results with
      | line -> float_of_string line
      | exception End_of_file -> failwith "perfbench: set-up sampler failed"
    in
    let stop () =
      close_out_noerr requests;
      close_in_noerr results;
      ignore (Unix.waitpid [] pid)
    in
    (sample, stop)

let peak_rss_mb () =
  let status = In_channel.with_open_text "/proc/self/status" In_channel.input_all in
  let vm_hwm line =
    match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
    | kb -> Some kb
    | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None
  in
  match List.find_map vm_hwm (String.split_on_char '\n' status) with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith "perfbench: no VmHWM line in /proc/self/status"

(* --- run loops -------------------------------------------------------- *)

type metric = string * float * string

(* Set-up is timed at [setup_points] points of a run. At each point but
   the first it runs until [setup_point_ns] of set-up time have passed,
   at most [setup_point_max] times, so a short set-up is timed more
   often than a long one. *)
let setup_points = 9
let setup_point_ns = 100_000_000.
let setup_point_max = 8

(* Safety stop for each loop, so a run ends well within its 180-second
   limit even if the program becomes much slower. *)
let loop_limit_ns = 75_000_000_000

let segment ~clock f =
  let t0 = clock () in
  f ();
  clock () - t0

(* End-to-end run: whole periods in a closed loop until [seconds] of step
   time have passed. Steps and set-ups are timed in processor time.

   Unit [i] repeats the work of unit [i - period], so each unit is timed
   once per period and its time is the fastest of these. Other tenants of
   a shared machine only ever slow a unit down, by a share that drifts
   from second to second; the fastest of several repeats is the program's
   own cost. The throughput is a period's operations over the sum of
   these times, and the latency percentiles are order statistics of
   them.

   Set-up is timed at [setup_points] points: once before the loop, the
   others from the state before it (so memo tables start cold) at period
   ends spread over the run, and after it if the run had too few periods.
   The reported median of all these samples thus does not hang on the
   machine's load in a single second. *)
let run_timed ~make ~seconds gate : metric list =
  let sample, stop = sampler (fun () -> float_of_int (segment ~clock:cpu_ns (make ()).setup)) in
  Fun.protect ~finally:stop @@ fun () ->
  let inst = make () in
  let setups = ref [ float_of_int (segment ~clock:cpu_ns inst.setup) ] in
  let points = ref 1 in
  let sample_setup () =
    incr points;
    let rec more taken spent =
      let s = sample () in
      setups := s :: !setups;
      if taken + 1 < setup_point_max && spent +. s < setup_point_ns then more (taken + 1) (spent +. s)
    in
    more 0 0.
  in
  let budget = seconds * 1_000_000_000 in
  let started = now_ns () in
  let busy = ref 0 and units = ref 0 and periods = ref 0 in
  let current = Array.make inst.period 0 and fastest = Array.make inst.period max_int in
  while
    (!busy < budget || !units mod inst.period <> 0) && now_ns () - started < loop_limit_ns
  do
    let dt = run_unit ~clock:cpu_ns inst gate !units in
    busy := !busy + dt;
    current.(!units mod inst.period) <- dt;
    incr units;
    if !units mod inst.period = 0 then begin
      Array.iteri (fun j dt -> fastest.(j) <- min fastest.(j) dt) current;
      incr periods;
      if !points < setup_points && !busy >= (!points - 1) * budget / setup_points then
        sample_setup ()
    end
  done;
  if !periods = 0 then failwith "perfbench: no whole period ran within the time limit";
  while !points < setup_points do
    sample_setup ()
  done;
  let setup_s = percentile (Array.of_list !setups) 0.5 /. 1e9 in
  let ops_per_s =
    float_of_int (period_ops inst) /. (float_of_int (Array.fold_left ( + ) 0 fastest) /. 1e9)
  in
  (* An operation's latency is its unit's. *)
  let latencies =
    Array.init (period_ops inst) (fun op -> float_of_int fastest.(op / inst.ops_per_unit))
  in
  [
    ("ops_per_s", ops_per_s, "1/s");
    ("op_p50_ms", percentile latencies 0.5 /. 1e6, "ms");
    ("op_p90_ms", percentile latencies 0.9 /. 1e6, "ms");
    ("setup_s", setup_s, "s");
    ("peak_rss_mb", peak_rss_mb (), "MB");
  ]

(* Runs [units] units of [inst] through [unit], stopping early only at the
   safety limit, which fails the run: a traced run must do the same work
   every time. Returns the summed wall time of set-up and units. *)
let fixed_run inst ~units unit =
  let wall = ref (segment ~clock:now_ns inst.setup) in
  let started = now_ns () in
  let i = ref 0 in
  while !i < units && now_ns () - started < loop_limit_ns do
    wall := !wall + unit !i;
    incr i
  done;
  if !i < units then
    failwith (Printf.sprintf "perfbench: traced run stopped after %d of %d units" !i units);
  !wall

(* Per-layer run: a fixed number of whole periods, so call counts repeat
   exactly. The same set-up and units run first untraced in a child
   process; the difference of the two wall times is what tracing costs.
   Wall times cover set-up and steps only, never the checks. *)
let run_traced ~make gate : metric list =
  let untraced_ns =
    in_child (fun () ->
        let inst = make () in
        float_of_int
          (fixed_run inst ~units:(inst.traced_periods * inst.period) (fun i ->
               inst.prepare i;
               segment ~clock:now_ns (fun () -> try inst.step i with _ -> ()))))
  in
  Probe.enabled := true;
  let inst = make () in
  let wall =
    fixed_run inst ~units:(inst.traced_periods * inst.period) (run_unit ~clock:now_ns inst gate)
  in
  Probe.enabled := false;
  let layer_metrics name =
    let calls, total_ns, samples =
      match Hashtbl.find_opt Probe.layers name with
      | Some l -> (l.Probe.calls, l.Probe.total_ns, Array.of_list l.Probe.samples_ns)
      | None -> (0, 0, [||])
    in
    let pct p = if calls = 0 then 0. else percentile samples p /. 1e3 in
    [
      (name ^ ".calls", float_of_int calls, "count");
      (name ^ ".ms", float_of_int total_ns /. 1e6, "ms");
      (name ^ ".p50_us", pct 0.5, "us");
      (name ^ ".p90_us", pct 0.9, "us");
    ]
  in
  let layered_ns = Hashtbl.fold (fun _ l acc -> acc + l.Probe.total_ns) Probe.layers 0 in
  let c = Probe.counter in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  List.concat_map layer_metrics timed_layers
  @ List.map (fun name -> (name, float_of_int (c name), "count")) counted
  @ [
      ( "hybrid.relocations_per_backtrack",
        ratio (c "hybrid.relocations") (c "hybrid.backtracks"),
        "ratio" );
      ( "serve.cache.hit_ratio",
        ratio (c "serve.cache.hits") (c "serve.cache.hits" + c "serve.cache.misses"),
        "ratio" );
      ("other_ms", float_of_int (wall - layered_ns) /. 1e6, "ms");
      ("traced_wall_ms", float_of_int wall /. 1e6, "ms");
      ("untraced_wall_ms", untraced_ns /. 1e6, "ms");
      ("trace_overhead_ms", (float_of_int wall -. untraced_ns) /. 1e6, "ms");
    ]

(* Prints the codes of one period's operations, one per line: the
   recorded outputs the gate compares later runs with. False when any
   operation failed its checks. *)
let record ~make =
  let inst = make () in
  inst.setup ();
  let gate = gate inst None in
  for i = 0 to inst.period - 1 do
    inst.prepare i;
    inst.step i;
    let verdicts = inst.check i in
    List.iter (fun v -> print_endline v.code) verdicts;
    judge gate ~first_op:(i * inst.ops_per_unit) verdicts
  done;
  gate.failed = 0

let print_result ~correct ~attempted ~failed (metrics : metric list) =
  let entry (name, value, unit) =
    (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.Str unit) ])
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj (List.map entry metrics));
          ]))
