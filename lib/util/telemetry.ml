(* One recording core. Every domain records into its own buffer
   (domain-local storage), so recording never takes a lock: the state
   mutex guards only buffer creation and the snapshot. A closed span is
   one trace event, the only record of its time; counters merge by name
   with commutative sums and events by (ts, tid, name), so a snapshot
   cannot depend on which domain ran which trial. *)

let max_events_per_buffer = 1_000_000

(* Nanoseconds since [enable] and of duration: a native int holds 146
   years of them and, unlike an int64 field, needs no box. *)
type event = { ev_name : string; ev_ts : int; ev_dur : int }

(* --- snapshot and renderers --- *)

module Snapshot = struct
  type t = {
    counters : (string * int) list;  (* sorted by name *)
    events : (int * event) list;  (* (tid, event), sorted by (ts, tid, name) *)
    dropped : int;
  }

  type span = { calls : int; total_ns : int; p50_ns : float; p99_ns : float; max_ns : int }

  let counters t = t.counters

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
    let c = Int.compare a.ev_ts b.ev_ts in
    if c <> 0 then c
    else
      let c = Int.compare tid_a tid_b in
      if c <> 0 then c else String.compare a.ev_name b.ev_name

  let merge a b =
    {
      counters = group ( + ) (a.counters @ b.counters);
      events = List.merge event_compare a.events b.events;
      dropped = a.dropped + b.dropped;
    }

  (* --- per-phase summary --- *)

  let span_of durations =
    let ns = List.map float_of_int durations in
    {
      calls = List.length durations;
      total_ns = List.fold_left ( + ) 0 durations;
      p50_ns = Stats.percentile ns 50.;
      p99_ns = Stats.percentile ns 99.;
      max_ns = List.fold_left max 0 durations;
    }

  (* Each span name's durations, sorted by name. *)
  let durations t =
    let by_name = Hashtbl.create 64 in
    List.iter
      (fun (_, ev) ->
        match Hashtbl.find_opt by_name ev.ev_name with
        | Some r -> r := ev.ev_dur :: !r
        | None -> Hashtbl.replace by_name ev.ev_name (ref [ ev.ev_dur ]))
      t.events;
    Hashtbl.fold (fun name r acc -> (name, !r) :: acc) by_name []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let spans t = List.map (fun (name, ns) -> (name, span_of ns)) (durations t)

  let pp_ns ns =
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
    let spans = durations t in
    List.iter
      (fun (name, durations) ->
        add_row [ name; string_of_int (List.length durations) ] (fun () ->
            let s = span_of durations and ns i = pp_ns (float_of_int i) in
            [
              ns s.total_ns;
              ns (s.total_ns / s.calls);
              pp_ns s.p50_ns;
              pp_ns s.p99_ns;
              ns s.max_ns;
            ]))
      spans;
    let counters =
      t.counters @ if t.dropped > 0 then [ ("telemetry.dropped_events", t.dropped) ] else []
    in
    if spans <> [] && counters <> [] then Texttable.add_separator table;
    List.iter
      (fun (name, n) -> add_row [ name; string_of_int n ] (fun () -> [ "-"; "-"; "-"; "-"; "-" ]))
      counters;
    table

  (* --- Chrome trace --- *)

  let schema = "mcx-trace/1"

  let chrome_trace t =
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
              ("ts", Json_out.Float (float_of_int ev.ev_ts /. 1e3));
              ("dur", Json_out.Float (float_of_int ev.ev_dur /. 1e3));
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
            [
              ("schema", Json_out.Str schema);
              ("dropped_events", Json_out.Int t.dropped);
              ( "counters",
                Json_out.Obj (List.map (fun (name, n) -> (name, Json_out.Int n)) t.counters) );
            ] );
      ]

  exception Missing of string

  (* The inverse of [chrome_trace]: metadata events are skipped, and the
     microsecond [ts] and [dur] round back to the nanoseconds they were
     written from (exact below 2^51 ns). *)
  let of_chrome_trace json =
    let need field = function Some v -> v | None -> raise (Missing field) in
    let get field conv j = need field (Option.bind (Json_out.member field j) conv) in
    let ns us = Float.to_int (Float.round (us *. 1e3)) in
    let event ev =
      if not (String.equal (get "ph" Json_out.to_string_opt ev) "X") then None
      else
        Some
          ( get "tid" Json_out.to_int_opt ev,
            {
              ev_name = get "name" Json_out.to_string_opt ev;
              ev_ts = ns (get "ts" Json_out.to_float_opt ev);
              ev_dur = ns (get "dur" Json_out.to_float_opt ev);
            } )
    in
    let fields = function Json_out.Obj fields -> Some fields | _ -> None in
    match
      let other = get "otherData" Option.some json in
      if not (String.equal (get "schema" Json_out.to_string_opt other) schema) then
        raise (Missing "schema");
      {
        counters =
          group ( + )
            (List.map
               (fun (name, n) -> (name, need name (Json_out.to_int_opt n)))
               (get "counters" fields other));
        events =
          List.sort event_compare
            (List.filter_map event (get "traceEvents" Json_out.to_list_opt json));
        dropped = get "dropped_events" Json_out.to_int_opt other;
      }
    with
    | t -> Ok t
    | exception Missing field ->
      Error (Printf.sprintf "not an %s Chrome trace (bad or missing %S)" schema field)
end

(* --- the store --- *)

type buffer = {
  tid : int;
  counts : (string, int ref) Hashtbl.t;
  mutable stack : (string * int) list;
  mutable events : event array;
  mutable n_events : int;
  mutable dropped : int;
}

let enabled_flag = ref false
let now () = Int64.to_int (Timing.monotonic_ns ())
let epoch = ref 0
let state_mutex = Mutex.create ()
let locked f = Mutex.protect state_mutex f
let registry : buffer list ref = ref []
let next_tid = Atomic.make 0

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          tid = Atomic.fetch_and_add next_tid 1;
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
  epoch := now ();
  enabled_flag := true

let disable () = enabled_flag := false

let reset () =
  locked (fun () ->
      List.iter
        (fun b ->
          Hashtbl.reset b.counts;
          b.stack <- [];
          b.events <- [||];
          b.n_events <- 0;
          b.dropped <- 0)
        !registry)

(* --- recording --- *)

let count ?(n = 1) name =
  if !enabled_flag then begin
    let counts = (buffer ()).counts in
    match Hashtbl.find_opt counts name with
    | Some r -> r := !r + n
    | None -> Hashtbl.replace counts name (ref n)
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
    b.stack <- (name, now ()) :: b.stack
  end

(* Close the innermost frame when it is [name], recording its trace
   event. Tolerant: enabling or resetting mid-flight leaves no frame to
   close. *)
let close_span_if_open name =
  if !enabled_flag then begin
    let b = buffer () in
    match b.stack with
    | (top, t0) :: rest when String.equal top name ->
      b.stack <- rest;
      push_event b { ev_name = name; ev_ts = t0 - !epoch; ev_dur = now () - t0 }
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

let snapshot () =
  let buffers = locked (fun () -> !registry) in
  let counts b = Hashtbl.fold (fun name r acc -> (name, !r) :: acc) b.counts [] in
  let events b = List.init b.n_events (fun i -> (b.tid, b.events.(i))) in
  {
    Snapshot.counters = Snapshot.group ( + ) (List.concat_map counts buffers);
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
        output_string oc (Json_out.to_string (Snapshot.chrome_trace snap));
        output_char oc '\n';
        Printf.eprintf "[mcx] telemetry: chrome trace written to %s\n" trace;
        output_string stderr
          (Texttable.render (Snapshot.summary_table ~times:(Config.trace_times ()) snap));
        flush stderr
      end;
      close_out oc)
