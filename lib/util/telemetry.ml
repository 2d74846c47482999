(* One recording core. Every domain records into its own buffer
   (domain-local storage), so recording never takes a lock: the state
   mutex guards only buffer creation and the snapshot. Spans and
   counters merge by name with commutative sums, so a snapshot cannot
   depend on which domain ran which trial. *)

let n_buckets = 64
let max_events_per_buffer = 1_000_000

(* --- histogram geometry --- *)

let bucket_of_ns ns =
  if Int64.compare ns 2L < 0 then 0
  else begin
    (* durations fit comfortably in a native int on 64-bit *)
    let n = Int64.to_int ns in
    let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
    min (n_buckets - 1) (log2 n 0)
  end

let bucket_bounds i =
  if i < 0 || i >= n_buckets then invalid_arg "Telemetry.bucket_bounds";
  let lo = if i = 0 then 0L else Int64.shift_left 1L i in
  let hi = if i = n_buckets - 1 then Int64.max_int else Int64.shift_left 1L (i + 1) in
  (lo, hi)

type event = { ev_name : string; ev_ts : int64; ev_dur : int64 }

(* --- snapshot and renderers --- *)

module Snapshot = struct
  type hist = {
    count : int;
    sum_ns : int64;
    min_ns : int64;
    max_ns : int64;
    buckets : int array;
  }

  type t = {
    spans : (string * hist) list;  (* sorted by name *)
    counters : (string * int) list;  (* sorted by name *)
    events : (int * event) list;  (* (tid, event), sorted by (ts, tid) *)
    dropped : int;
  }

  let spans t = t.spans
  let counters t = t.counters

  let merge_hist a b =
    {
      count = a.count + b.count;
      sum_ns = Int64.add a.sum_ns b.sum_ns;
      min_ns = Int64.min a.min_ns b.min_ns;
      max_ns = Int64.max a.max_ns b.max_ns;
      buckets = Array.init n_buckets (fun i -> a.buckets.(i) + b.buckets.(i));
    }

  (* A name-sorted list from (name, value) pairs in any order, values of
     one name combined. Keyed and order-independent, so a snapshot
     cannot depend on which domain recorded what. *)
  let group combine pairs =
    List.fold_right
      (fun (name, v) acc ->
        match acc with
        | (next, w) :: rest when String.equal name next -> (name, combine v w) :: rest
        | _ -> (name, v) :: acc)
      (List.stable_sort (fun (a, _) (b, _) -> String.compare a b) pairs)
      []

  let event_compare (tid_a, a) (tid_b, b) =
    let c = Int64.compare a.ev_ts b.ev_ts in
    if c <> 0 then c
    else
      let c = Int.compare tid_a tid_b in
      if c <> 0 then c else String.compare a.ev_name b.ev_name

  let merge a b =
    {
      spans = group merge_hist (a.spans @ b.spans);
      counters = group ( + ) (a.counters @ b.counters);
      events = List.merge event_compare a.events b.events;
      dropped = a.dropped + b.dropped;
    }

  (* --- per-phase summary --- *)

  (* Upper edge of the bucket holding the p-quantile, clamped to the
     observed [min, max]: the edge alone can overshoot by up to 2x. *)
  let percentile_ns h ~p =
    if p <= 0. || p > 1. then invalid_arg "Telemetry.Snapshot.percentile_ns";
    if h.count = 0 then 0L
    else begin
      let target = max 1 (int_of_float (ceil (p *. float_of_int h.count))) in
      let rec walk i acc =
        let acc = acc + h.buckets.(i) in
        if acc >= target || i = n_buckets - 1 then i else walk (i + 1) acc
      in
      let edge = Int64.pred (snd (bucket_bounds (walk 0 0))) in
      Int64.max h.min_ns (Int64.min h.max_ns edge)
    end

  let pp_ns ns =
    let ns = Int64.to_float ns in
    if ns < 1e3 then Printf.sprintf "%.0fns" ns
    else if ns < 1e6 then Printf.sprintf "%.1fus" (ns /. 1e3)
    else if ns < 1e9 then Printf.sprintf "%.1fms" (ns /. 1e6)
    else Printf.sprintf "%.2fs" (ns /. 1e9)

  let summary_table ?(times = true) t =
    let table =
      Texttable.create
        ([ "phase"; "calls" ] @ if times then [ "total"; "mean"; "p50"; "p99"; "max" ] else [])
    in
    (* The deterministic projection drops every wall-clock column. *)
    let add_row cells timed = Texttable.add_row table (cells @ if times then timed () else []) in
    List.iter
      (fun (name, h) ->
        add_row [ name; string_of_int h.count ] (fun () ->
            let mean = if h.count = 0 then 0L else Int64.div h.sum_ns (Int64.of_int h.count) in
            [
              pp_ns h.sum_ns;
              pp_ns mean;
              pp_ns (percentile_ns h ~p:0.50);
              pp_ns (percentile_ns h ~p:0.99);
              pp_ns h.max_ns;
            ]))
      t.spans;
    if t.spans <> [] && t.counters <> [] then Texttable.add_separator table;
    List.iter
      (fun (name, n) -> add_row [ name; string_of_int n ] (fun () -> [ "-"; "-"; "-"; "-"; "-" ]))
      t.counters;
    table

  (* --- Chrome trace --- *)

  let chrome_trace ?config t =
    let tids = List.sort_uniq Int.compare (List.map fst t.events) in
    let metadata event tid name =
      Json_out.Obj
        [
          ("name", Json_out.Str event);
          ("ph", Json_out.Str "M");
          ("pid", Json_out.Int 1);
          ("tid", Json_out.Int tid);
          ("args", Json_out.Obj [ ("name", Json_out.Str name) ]);
        ]
    in
    let meta =
      metadata "process_name" 0 "mcx"
      :: List.map (fun tid -> metadata "thread_name" tid (Printf.sprintf "domain %d" tid)) tids
    in
    let span_events =
      List.map
        (fun (tid, ev) ->
          Json_out.Obj
            [
              ("name", Json_out.Str ev.ev_name);
              ("cat", Json_out.Str "mcx");
              ("ph", Json_out.Str "X");
              ("ts", Json_out.Float (Int64.to_float ev.ev_ts /. 1e3));
              ("dur", Json_out.Float (Int64.to_float ev.ev_dur /. 1e3));
              ("pid", Json_out.Int 1);
              ("tid", Json_out.Int tid);
            ])
        t.events
    in
    Json_out.Obj
      [
        ("traceEvents", Json_out.List (meta @ span_events));
        ("displayTimeUnit", Json_out.Str "ms");
        ( "otherData",
          Json_out.Obj
            ([
               ("schema", Json_out.Str "mcx-trace/1");
               ("dropped_events", Json_out.Int t.dropped);
               ( "counters",
                 Json_out.Obj (List.map (fun (name, n) -> (name, Json_out.Int n)) t.counters) );
             ]
            @ match config with None -> [] | Some c -> [ ("config", c) ]) );
      ]
end

(* --- the store --- *)

type hist = {
  mutable count : int;
  mutable sum_ns : int64;
  mutable min_ns : int64;
  mutable max_ns : int64;
  buckets : int array;
}

type buffer = {
  tid : int;
  spans : (string, hist) Hashtbl.t;
  counts : (string, int ref) Hashtbl.t;
  mutable stack : (string * int64) list;
  mutable events : event array;
  mutable n_events : int;
  mutable dropped : int;
}

let enabled_flag = ref false
let epoch = ref 0L
let state_mutex = Mutex.create ()
let locked f = Mutex.protect state_mutex f
let registry : buffer list ref = ref []
let next_tid = Atomic.make 0

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          tid = Atomic.fetch_and_add next_tid 1;
          spans = Hashtbl.create 64;
          counts = Hashtbl.create 64;
          stack = [];
          events = [||];
          n_events = 0;
          dropped = 0;
        }
      in
      locked (fun () -> registry := b :: !registry);
      b)

let buffer () = Domain.DLS.get buffer_key

let enabled () = !enabled_flag

let enable () =
  epoch := Timing.monotonic_ns ();
  enabled_flag := true

let disable () = enabled_flag := false

let reset () =
  locked (fun () ->
      List.iter
        (fun b ->
          Hashtbl.reset b.spans;
          Hashtbl.reset b.counts;
          b.stack <- [];
          b.events <- [||];
          b.n_events <- 0;
          b.dropped <- 0)
        !registry)

(* --- recording --- *)

let new_hist () =
  { count = 0; sum_ns = 0L; min_ns = Int64.max_int; max_ns = 0L; buckets = Array.make n_buckets 0 }

let add_sample h ns =
  let ns = if Int64.compare ns 0L < 0 then 0L else ns in
  h.count <- h.count + 1;
  h.sum_ns <- Int64.add h.sum_ns ns;
  if Int64.compare ns h.min_ns < 0 then h.min_ns <- ns;
  if Int64.compare ns h.max_ns > 0 then h.max_ns <- ns;
  let i = bucket_of_ns ns in
  h.buckets.(i) <- h.buckets.(i) + 1

(* The cell of [name] in [tbl], created by [fresh] on first use. *)
let cell tbl name fresh =
  match Hashtbl.find_opt tbl name with
  | Some c -> c
  | None ->
    let c = fresh () in
    Hashtbl.replace tbl name c;
    c

let observe_ns name ns =
  if !enabled_flag then add_sample (cell (buffer ()).spans name new_hist) ns

let count ?(n = 1) name =
  if !enabled_flag then begin
    let r = cell (buffer ()).counts name (fun () -> ref 0) in
    r := !r + n
  end

(* --- spans --- *)

let push_event b ev =
  if b.n_events >= max_events_per_buffer then b.dropped <- b.dropped + 1
  else begin
    if b.n_events = Array.length b.events then begin
      let cap = min max_events_per_buffer (max 256 (2 * Array.length b.events)) in
      let bigger = Array.make cap ev in
      Array.blit b.events 0 bigger 0 b.n_events;
      b.events <- bigger
    end;
    b.events.(b.n_events) <- ev;
    b.n_events <- b.n_events + 1
  end

let begin_span name =
  if !enabled_flag then begin
    let b = buffer () in
    b.stack <- (name, Timing.monotonic_ns ()) :: b.stack
  end

(* Close the innermost frame when it is [name], recording its duration
   and a trace event. Tolerant: enabling or resetting mid-flight leaves
   no frame to close. *)
let close_span_if_open name =
  if !enabled_flag then begin
    let b = buffer () in
    match b.stack with
    | (top, t0) :: rest when String.equal top name ->
      b.stack <- rest;
      let dur = Int64.sub (Timing.monotonic_ns ()) t0 in
      add_sample (cell b.spans name new_hist) dur;
      push_event b { ev_name = name; ev_ts = Int64.sub t0 !epoch; ev_dur = dur }
    | _ -> ()
  end

let span name f =
  if not !enabled_flag then f ()
  else begin
    begin_span name;
    match f () with
    | v ->
      close_span_if_open name;
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      close_span_if_open name;
      Printexc.raise_with_backtrace e bt
  end

let freeze (h : hist) =
  {
    Snapshot.count = h.count;
    sum_ns = h.sum_ns;
    min_ns = h.min_ns;
    max_ns = h.max_ns;
    buckets = Array.copy h.buckets;
  }

let snapshot () =
  let buffers = locked (fun () -> !registry) in
  let pairs tbl value = Hashtbl.fold (fun name c acc -> (name, value c) :: acc) tbl [] in
  let events b = List.init b.n_events (fun i -> (b.tid, b.events.(i))) in
  {
    Snapshot.spans =
      Snapshot.group Snapshot.merge_hist (List.concat_map (fun b -> pairs b.spans freeze) buffers);
    counters = Snapshot.group ( + ) (List.concat_map (fun b -> pairs b.counts ( ! )) buffers);
    events = List.sort Snapshot.event_compare (List.concat_map events buffers);
    dropped = List.fold_left (fun acc b -> acc + b.dropped) 0 buffers;
  }

(* --- driver hook --- *)

(* The trace file is opened before anything records, so a path that
   cannot be written fails the run before it does any work. *)
let install ~trace =
  let oc = open_out trace in
  enable ();
  at_exit (fun () ->
      if !enabled_flag then begin
        let snap = snapshot () in
        (* The trace carries timestamps anyway, so its embedded config
           snapshot is the full one, operational knobs included. *)
        output_string oc
          (Json_out.to_string (Snapshot.chrome_trace ~config:(Config.snapshot ()) snap));
        output_char oc '\n';
        Printf.eprintf "[mcx] telemetry: chrome trace written to %s\n" trace;
        output_string stderr
          (Texttable.render (Snapshot.summary_table ~times:(Config.trace_times ()) snap));
        flush stderr
      end;
      close_out oc)

let install_from_env () = Option.iter (fun trace -> install ~trace) (Config.trace ())
