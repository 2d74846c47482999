(* One recording core. Every domain records into its own buffer
   (domain-local storage), so recording never takes a lock: the state
   mutex guards only buffer creation, family declarations, gauges and the
   snapshot. Counters and histograms merge by (family, labels) key with
   commutative sums, so a snapshot cannot depend on which domain ran
   which trial. Gauges are current-value cells and live in one small
   mutex-guarded table instead. *)

type kind = Counter | Gauge | Histogram

let n_buckets = 64
let max_events_per_buffer = 1_000_000

(* The two families the span/counter entry points write. *)
let span_family = "mcx_telemetry_span_ns"
let counter_family = "mcx_telemetry_counter"

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

(* --- name and label validation --- *)

(* The Prometheus name grammar; label names may not contain ':'. *)
let valid_name ~colon s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | ':' -> colon | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | ':' -> colon | _ -> false)
       s

let valid_metric_name = valid_name ~colon:true
let valid_label_name s = s <> "le" && valid_name ~colon:false s

(* Canonical rendering of a name-sorted label set: series identity
   within a family, and the order series are listed in. *)
let label_key labels =
  let buf = Buffer.create 32 in
  List.iter
    (fun (name, value) ->
      Buffer.add_string buf name;
      Buffer.add_char buf '\x00';
      Buffer.add_string buf value;
      Buffer.add_char buf '\x01')
    labels;
  Buffer.contents buf

(* Sorted, validated label set plus its key. *)
let normalize_labels labels =
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) labels in
  let rec check = function
    | [] -> ()
    | (name, _) :: rest ->
      if not (valid_label_name name) then
        invalid_arg (Printf.sprintf "Telemetry: invalid label name %S" name);
      (match rest with
      | (next, _) :: _ when String.equal name next ->
        invalid_arg (Printf.sprintf "Telemetry: duplicate label %S" name)
      | _ -> ());
      check rest
  in
  check sorted;
  (sorted, label_key sorted)

type event = { ev_name : string; ev_ts : int64; ev_dur : int64 }

let kind_name = function Counter -> "counter" | Gauge -> "gauge" | Histogram -> "histogram"

(* --- snapshot and renderers --- *)

module Snapshot = struct
  type hist = {
    count : int;
    sum_ns : int64;
    min_ns : int64;
    max_ns : int64;
    buckets : int array;
  }

  type value = Counter of int | Gauge of float | Histogram of hist
  type series = { labels : (string * string) list; value : value }

  type family = {
    name : string;
    kind : kind;
    help : string;
    measured : bool;
    series : series list;
  }

  type t = {
    families : family list;  (* sorted by name *)
    events : (int * event) list;  (* (tid, event), sorted by (ts, tid) *)
    dropped : int;
  }

  let families t = t.families
  let family t name = List.find_opt (fun f -> String.equal f.name name) t.families

  (* Series of one of the two span/counter families, keyed by the value
     of their single label. *)
  let named t family_name label project =
    match family t family_name with
    | None -> []
    | Some f ->
      List.filter_map
        (fun s ->
          match (List.assoc_opt label s.labels, project s.value) with
          | Some name, Some v -> Some (name, v)
          | _ -> None)
        f.series

  let spans t = named t span_family "span" (function Histogram h -> Some h | _ -> None)
  let counters t = named t counter_family "name" (function Counter n -> Some n | _ -> None)

  let merge_hist a b =
    {
      count = a.count + b.count;
      sum_ns = Int64.add a.sum_ns b.sum_ns;
      min_ns = Int64.min a.min_ns b.min_ns;
      max_ns = Int64.max a.max_ns b.max_ns;
      buckets = Array.init n_buckets (fun i -> a.buckets.(i) + b.buckets.(i));
    }

  (* Gauges are current values, not sums: the later one wins. *)
  let merge_value a b =
    match (a, b) with
    | Counter x, Counter y -> Counter (x + y)
    | Histogram x, Histogram y -> Histogram (merge_hist x y)
    | _, v -> v

  (* Families from (family, series) pairs in any order, ignoring the
     family's own series: pairs with one (family, label set) key merge,
     families sort by name and series by label key. Keyed and
     order-independent, so a snapshot cannot depend on which domain
     recorded what. *)
  let group pairs =
    let keyed = List.map (fun (f, s) -> (f, label_key s.labels, s)) pairs in
    let by_key (f1, k1, _) (f2, k2, _) =
      let c = String.compare f1.name f2.name in
      if c <> 0 then c else String.compare k1 k2
    in
    List.fold_right
      (fun (f, k, s) acc ->
        match acc with
        | (g, (k', s') :: series) :: rest when String.equal g.name f.name && String.equal k k'
          ->
          (g, (k, { s with value = merge_value s.value s'.value }) :: series) :: rest
        | (g, series) :: rest when String.equal g.name f.name -> (g, (k, s) :: series) :: rest
        | _ -> (f, [ (k, s) ]) :: acc)
      (List.stable_sort by_key keyed) []
    |> List.map (fun (f, series) -> { f with series = List.map snd series })

  let pairs t = List.concat_map (fun f -> List.map (fun s -> (f, s)) f.series) t.families

  let event_compare (tid_a, a) (tid_b, b) =
    let c = Int64.compare a.ev_ts b.ev_ts in
    if c <> 0 then c
    else
      let c = Int.compare tid_a tid_b in
      if c <> 0 then c else String.compare a.ev_name b.ev_name

  let merge a b =
    {
      families = group (pairs a @ pairs b);
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
    let spans = spans t and counters = counters t in
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
      spans;
    if spans <> [] && counters <> [] then Texttable.add_separator table;
    List.iter
      (fun (name, n) -> add_row [ name; string_of_int n ] (fun () -> [ "-"; "-"; "-"; "-"; "-" ]))
      counters;
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
                 Json_out.Obj
                   (List.map (fun (name, n) -> (name, Json_out.Int n)) (counters t)) );
             ]
            @ match config with None -> [] | Some c -> [ ("config", c) ]) );
      ]

  (* --- OpenMetrics text --- *)

  (* Backslash and newline are escaped everywhere, the double quote only
     inside label values ([quote]). *)
  let escape ~quote s =
    let buf = Buffer.create (String.length s) in
    String.iter
      (function
        | '\\' -> Buffer.add_string buf "\\\\"
        | '"' when quote -> Buffer.add_string buf "\\\""
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  (* [{k="v",...}] with [extra] appended; empty label set renders as
     nothing (plain [name value] sample). *)
  let render_labels ?extra labels =
    let pairs =
      List.map
        (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape ~quote:true v))
        labels
      @ match extra with Some kv -> [ kv ] | None -> []
    in
    match pairs with [] -> "" | pairs -> "{" ^ String.concat "," pairs ^ "}"

  let sample buf name labels value =
    Buffer.add_string buf name;
    Buffer.add_string buf labels;
    Buffer.add_char buf ' ';
    Buffer.add_string buf value;
    Buffer.add_char buf '\n'

  let add_histogram_text buf ~times name labels h =
    if times then begin
      (* Cumulative buckets up to the last occupied one, then +Inf. *)
      let last = ref (-1) in
      Array.iteri (fun i c -> if c > 0 then last := i) h.buckets;
      let acc = ref 0 in
      for i = 0 to !last do
        acc := !acc + h.buckets.(i);
        let _, hi = bucket_bounds i in
        sample buf (name ^ "_bucket")
          (render_labels ~extra:(Printf.sprintf "le=\"%s\"" (Int64.to_string hi)) labels)
          (string_of_int !acc)
      done;
      sample buf (name ^ "_bucket")
        (render_labels ~extra:"le=\"+Inf\"" labels)
        (string_of_int h.count);
      sample buf (name ^ "_sum") (render_labels labels) (Int64.to_string h.sum_ns)
    end;
    sample buf (name ^ "_count") (render_labels labels) (string_of_int h.count)

  let to_openmetrics ?(times = true) t =
    let buf = Buffer.create 4096 in
    List.iter
      (fun f ->
        if times || not f.measured then begin
          if f.help <> "" then
            Buffer.add_string buf
              (Printf.sprintf "# HELP %s %s\n" f.name (escape ~quote:false f.help));
          Buffer.add_string buf
            (Printf.sprintf "# TYPE %s %s\n" f.name (kind_name f.kind));
          List.iter
            (fun s ->
              match s.value with
              | Counter n -> sample buf f.name (render_labels s.labels) (string_of_int n)
              | Gauge v -> sample buf f.name (render_labels s.labels) (Json_out.float_repr v)
              | Histogram h -> add_histogram_text buf ~times f.name s.labels h)
            f.series
        end)
      t.families;
    Buffer.add_string buf "# EOF\n";
    Buffer.contents buf

  (* --- mcx-metrics/1 JSON --- *)

  let labels_json labels = Json_out.Obj (List.map (fun (k, v) -> (k, Json_out.Str v)) labels)

  let series_json ~times s =
    let base = [ ("labels", labels_json s.labels) ] in
    match s.value with
    | Counter n -> Json_out.Obj (base @ [ ("value", Json_out.Int n) ])
    | Gauge v -> Json_out.Obj (base @ [ ("value", Json_out.Float v) ])
    | Histogram h ->
      let deterministic = base @ [ ("count", Json_out.Int h.count) ] in
      if not times then Json_out.Obj deterministic
      else
        let sparse =
          Array.to_list h.buckets
          |> List.mapi (fun i c -> (i, c))
          |> List.filter (fun (_, c) -> c > 0)
          |> List.map (fun (i, c) -> Json_out.List [ Json_out.Int i; Json_out.Int c ])
        in
        Json_out.Obj
          (deterministic
          @ [
              ("sum_ns", Json_out.Int (Int64.to_int h.sum_ns));
              ("buckets", Json_out.List sparse);
            ])

  let to_json ?(times = true) ?config t =
    let family_json f =
      Json_out.Obj
        ([ ("name", Json_out.Str f.name); ("type", Json_out.Str (kind_name f.kind)) ]
        @ (if f.help = "" then [] else [ ("help", Json_out.Str f.help) ])
        @ [ ("series", Json_out.List (List.map (series_json ~times) f.series)) ])
    in
    let kept = List.filter (fun f -> times || not f.measured) t.families in
    Json_out.Obj
      ([ ("schema", Json_out.Str "mcx-metrics/1") ]
      @ (match config with None -> [] | Some c -> [ ("config", c) ])
      @ [ ("metrics", Json_out.List (List.map family_json kept)) ])
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
  (* (family, label key) -> (sorted labels, cell) *)
  counters : (string * string, (string * string) list * int ref) Hashtbl.t;
  hists : (string * string, (string * string) list * hist) Hashtbl.t;
  (* Name-keyed indexes into [hists]/[counters] for the span and counter
     families: span/count never normalise labels after first use. *)
  spans : (string, hist) Hashtbl.t;
  counts : (string, int ref) Hashtbl.t;
  (* Families this domain already kind-checked: the hot path re-checks
     locally instead of taking the state mutex per record. *)
  known : (string, kind) Hashtbl.t;
  mutable stack : (string * int64) list;
  mutable events : event array;
  mutable n_events : int;
  mutable dropped : int;
}

let enabled_flag = ref false
let events_flag = ref false
let epoch = ref 0L
let state_mutex = Mutex.create ()
let locked f = Mutex.protect state_mutex f

(* family name -> metadata (a family with no series); guarded by
   [state_mutex]. *)
let families : (string, Snapshot.family) Hashtbl.t = Hashtbl.create 32

(* gauge cells: (family, label key) -> (labels, value); guarded. *)
let gauges : (string * string, (string * string) list * float ref) Hashtbl.t =
  Hashtbl.create 32

let registry : buffer list ref = ref []
let next_tid = Atomic.make 0

let declare_builtin () =
  let builtin name kind help =
    Hashtbl.replace families name { Snapshot.name; kind; help; measured = false; series = [] }
  in
  builtin span_family Histogram "telemetry span durations by span name";
  builtin counter_family Counter "telemetry counter totals (see MCX_TRACE)"

let () = declare_builtin ()

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          tid = Atomic.fetch_and_add next_tid 1;
          counters = Hashtbl.create 32;
          hists = Hashtbl.create 32;
          spans = Hashtbl.create 64;
          counts = Hashtbl.create 64;
          known = Hashtbl.create 32;
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

let enable ?(events = false) () =
  epoch := Timing.monotonic_ns ();
  events_flag := events;
  enabled_flag := true

let disable () = enabled_flag := false

let reset () =
  locked (fun () ->
      Hashtbl.reset families;
      declare_builtin ();
      Hashtbl.reset gauges;
      List.iter
        (fun b ->
          Hashtbl.reset b.counters;
          Hashtbl.reset b.hists;
          Hashtbl.reset b.spans;
          Hashtbl.reset b.counts;
          Hashtbl.reset b.known;
          b.stack <- [];
          b.events <- [||];
          b.n_events <- 0;
          b.dropped <- 0)
        !registry)

(* Declare-or-check under the mutex: the DLS buffers are lock-free but
   family metadata is shared, and declaration is rare (first use). *)
let declare_locked ?help ?measured kind name =
  if not (valid_metric_name name) then
    invalid_arg (Printf.sprintf "Telemetry: invalid metric name %S" name);
  let f =
    match Hashtbl.find_opt families name with
    | Some f when f.kind <> kind ->
      invalid_arg
        (Printf.sprintf "Telemetry: %s is a %s, not a %s" name (kind_name f.kind)
           (kind_name kind))
    | Some f -> f
    | None -> { Snapshot.name; kind; help = ""; measured = false; series = [] }
  in
  Hashtbl.replace families name
    {
      f with
      help = Option.value help ~default:f.help;
      measured = Option.value measured ~default:f.measured;
    }

let declare ?help ?measured kind name =
  locked (fun () -> declare_locked ?help ?measured kind name)

(* A kind this domain has not seen for [name] goes through the shared
   declaration, which raises on a mismatch. *)
let check_kind b kind name =
  match Hashtbl.find_opt b.known name with
  | Some k when k = kind -> ()
  | Some _ | None ->
    locked (fun () -> declare_locked kind name);
    Hashtbl.replace b.known name kind

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

(* The cell of series [family{labels}] in [tbl], created by [fresh] on
   first use. *)
let series tbl family labels fresh =
  let labels, key = normalize_labels labels in
  match Hashtbl.find_opt tbl (family, key) with
  | Some (_, cell) -> cell
  | None ->
    let cell = fresh () in
    Hashtbl.replace tbl (family, key) (labels, cell);
    cell

(* [name]'s series in one of the two single-label families, found
   through the name-keyed [index] after first use. *)
let indexed index tbl family label name fresh =
  match Hashtbl.find_opt index name with
  | Some cell -> cell
  | None ->
    let cell = series tbl family [ (label, name) ] fresh in
    Hashtbl.replace index name cell;
    cell

let span_hist b name = indexed b.spans b.hists span_family "span" name new_hist

let observe_ns name ns = if !enabled_flag then add_sample (span_hist (buffer ()) name) ns

let count ?(n = 1) name =
  if !enabled_flag then begin
    let b = buffer () in
    let r = indexed b.counts b.counters counter_family "name" name (fun () -> ref 0) in
    r := !r + n
  end

let inc ?(labels = []) ?(n = 1) name =
  if !enabled_flag then begin
    let b = buffer () in
    check_kind b Counter name;
    let r = series b.counters name labels (fun () -> ref 0) in
    r := !r + n
  end

let set ?(labels = []) name v =
  if !enabled_flag then begin
    check_kind (buffer ()) Gauge name;
    locked (fun () -> series gauges name labels (fun () -> ref v) := v)
  end

let observe ?(labels = []) name ns =
  if !enabled_flag then begin
    let b = buffer () in
    check_kind b Histogram name;
    add_sample (series b.hists name labels new_hist) ns
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
   (and a trace event when events are on). Tolerant: enabling or
   resetting mid-flight leaves no frame to close. *)
let close_span_if_open name =
  if !enabled_flag then begin
    let b = buffer () in
    match b.stack with
    | (top, t0) :: rest when String.equal top name ->
      b.stack <- rest;
      let dur = Int64.sub (Timing.monotonic_ns ()) t0 in
      add_sample (span_hist b name) dur;
      if !events_flag then
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
  Snapshot.Histogram
    {
      Snapshot.count = h.count;
      sum_ns = h.sum_ns;
      min_ns = h.min_ns;
      max_ns = h.max_ns;
      buckets = Array.copy h.buckets;
    }

let snapshot () =
  let pairs metas tbl value =
    Hashtbl.fold
      (fun (name, _) (labels, cell) acc ->
        (Hashtbl.find metas name, { Snapshot.labels; value = value cell }) :: acc)
      tbl []
  in
  let buffers, metas, gauge_pairs =
    locked (fun () ->
        (!registry, Hashtbl.copy families, pairs families gauges (fun r -> Snapshot.Gauge !r)))
  in
  let events b = List.init b.n_events (fun i -> (b.tid, b.events.(i))) in
  {
    Snapshot.families =
      Snapshot.group
        (List.concat_map
           (fun b ->
             pairs metas b.counters (fun r -> Snapshot.Counter !r) @ pairs metas b.hists freeze)
           buffers
        @ gauge_pairs);
    events = List.sort Snapshot.event_compare (List.concat_map events buffers);
    dropped = List.fold_left (fun acc b -> acc + b.dropped) 0 buffers;
  }

(* --- driver hooks --- *)

let install ?(out = stderr) ~trace () =
  enable ~events:true ();
  at_exit (fun () ->
      if !enabled_flag then begin
        let snap = snapshot () in
        (* The trace carries timestamps anyway, so its embedded config
           snapshot is the full one, operational knobs included. *)
        Json_out.write_file trace (Snapshot.chrome_trace ~config:(Config.snapshot ()) snap);
        Printf.fprintf out "[mcx] telemetry: chrome trace written to %s\n" trace;
        output_string out
          (Texttable.render (Snapshot.summary_table ~times:(Config.trace_times ()) snap));
        flush out
      end)

let install_from_env () =
  match Config.trace () with
  | Some path -> install ~trace:path ()
  | None -> ()
