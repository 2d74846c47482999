(* The three-stage batch dispatcher. Every per-request decision is made
   in request-index order from index-ordered outcome arrays, which is
   what makes served output byte-identical at any MCX_JOBS and across
   cache states. *)

module Pool = Mcx_util.Pool
module Lru = Mcx_util.Lru
module Telemetry = Mcx_util.Telemetry
module Timing = Mcx_util.Timing
module Json = Mcx_util.Json_out
module Mapper = Mcx_mapping.Mapper

type batch_stats = {
  label : string;
  requests : int;
  hits : int;
  misses : int;
  coalesced : int;
  errors : int;
  infeasible : int;
  evictions : int;
  elapsed_ns : int64;
  p50_ns : int64;
  p95_ns : int64;
}

type result_value =
  | Mapped of { assignment : int array; verified : bool option }
  | Unmappable

type t = {
  pool : Pool.t;
  cache : result_value Lru.t;
  on_access : (Access_log.record -> unit) option;
  mutable batches_rev : batch_stats list;
  mutable errors_total : int;
  mutable requests_total : int;
}

(* MCX_CACHE_SIZE sizes the mapping cache; responses are cache-invariant
   ("warm = cold" test), only latency changes. Read (validated) through
   the Config registry, the sanctioned env boundary. *)
let default_cache_capacity () = Mcx_util.Config.cache_size ()

let create ?pool ?cache_capacity ?on_access () =
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let capacity =
    match cache_capacity with Some c -> c | None -> default_cache_capacity ()
  in
  {
    pool;
    cache = Lru.create ~name:"serve.cache" ~capacity ();
    on_access;
    batches_rev = [];
    errors_total = 0;
    requests_total = 0;
  }

(* Per-request disposition after the resolve stage, in line order. *)
type disposition =
  | Malformed of { id : string; error : string }
  | Ready of Canonical.t

(* How a ready request's result is obtained. [Coalesced] and [Missed]
   both read the batch-local result table; they differ only in the
   access-log outcome (and a coalesced request did no work itself). *)
type source =
  | Hit of { value : result_value; lookup_ns : int64 }
  | Coalesced of string
  | Missed of string

let compute (canonical : Canonical.t) =
  Telemetry.span "serve.map" @@ fun () ->
  let t0 = Timing.monotonic_ns () in
  let config = canonical.Canonical.request.Wire.config in
  let result =
    match
      Mapper.map_cover config.Wire.mapper canonical.Canonical.cover
        canonical.Canonical.defects
    with
    | None -> Unmappable
    | Some layout ->
      (* Symbolic verify works at any width, but above 16 inputs BDDs can
         need exponential memory (36 inputs of x_i x_(i+18) take seconds and
         hundreds of MB) and nothing bounds a request's work yet. *)
      let verified =
        if
          config.Wire.verify
          && Mcx_logic.Mo_cover.n_inputs canonical.Canonical.cover <= 16
        then
          Some
            (Mcx_crossbar.Sim.agrees_with_reference ~defects:canonical.Canonical.defects
               layout)
        else None
      in
      Mapped { assignment = layout.Mcx_crossbar.Layout.row_assignment; verified }
  in
  (result, Int64.sub (Timing.monotonic_ns ()) t0)

let response_of_result (canonical : Canonical.t) result ~elapsed_ns =
  let request = canonical.Canonical.request in
  let base = Wire.response ~id:request.Wire.id in
  let with_digest r = { r with Wire.digest = Some canonical.Canonical.digest } in
  match result with
  | Error msg -> with_digest { (base Wire.Failed) with Wire.error = Some msg }
  | Ok Unmappable -> with_digest (base Wire.Infeasible)
  | Ok (Mapped { assignment; verified }) -> (
    match request.Wire.config.Wire.deadline_ms with
    | Some budget_ms when Int64.compare elapsed_ns (Int64.mul (Int64.of_int budget_ms) 1_000_000L) > 0
      ->
      with_digest (base Wire.Deadline)
    | Some _ | None ->
      with_digest
        {
          (base Wire.Ok_mapped) with
          Wire.rows = Some (Mcx_crossbar.Geometry.rows canonical.Canonical.geometry);
          cols = Some (Mcx_crossbar.Geometry.cols canonical.Canonical.geometry);
          assignment = Some (Canonical.translate_assignment canonical assignment);
          verified;
        })

let declare_metrics () =
  if Telemetry.enabled () then begin
    Telemetry.declare ~help:"requests served, by response status" Telemetry.Counter
      "mcx_serve_requests_total";
    Telemetry.declare ~help:"requests served, by cache outcome" Telemetry.Counter
      "mcx_serve_cache_total";
    Telemetry.declare ~help:"per-request stage durations" Telemetry.Histogram
      "mcx_serve_stage_ns"
  end

let observe_access (record : Access_log.record) =
  if Telemetry.enabled () then begin
    Telemetry.inc
      ~labels:[ ("status", record.Access_log.status) ]
      "mcx_serve_requests_total";
    Telemetry.inc
      ~labels:
        [ ("outcome", Access_log.cache_outcome_to_string record.Access_log.cache) ]
      "mcx_serve_cache_total";
    List.iter
      (fun stage ->
        Telemetry.observe
          ~labels:[ ("stage", stage) ]
          "mcx_serve_stage_ns"
          (Access_log.stage_ns record stage))
      Access_log.stage_names
  end

(* Order statistic of raw nanosecond durations; 0 for none. *)
let percentile_ns durations p =
  match durations with [] -> 0L | _ -> Int64.of_float (Mcx_util.Stats.percentile durations p)

let serve_batch t ~label lines =
  Telemetry.span "serve.batch" @@ fun () ->
  let batch_t0 = Timing.monotonic_ns () in
  let lines = Array.of_list lines in
  let n = Array.length lines in
  t.requests_total <- t.requests_total + n;
  Telemetry.count ~n "serve.requests";
  declare_metrics ();
  let parse_ns = Array.make n 0L in
  let resolve_ns = Array.make n 0L in
  (* Stage 1: parse + canonicalize, isolated per request. *)
  let dispositions =
    Telemetry.span "serve.parse" @@ fun () ->
    let parsed =
      Array.mapi
        (fun index line ->
          let t0 = Timing.monotonic_ns () in
          let r = Wire.request_of_line ~index line in
          parse_ns.(index) <- Int64.sub (Timing.monotonic_ns ()) t0;
          r)
        lines
    in
    let resolved =
      Pool.map_isolated t.pool n (fun i ->
          match parsed.(i) with
          | Error msg -> (Error msg, 0L)
          | Ok request ->
            let t0 = Timing.monotonic_ns () in
            let canonical = Canonical.resolve request in
            (Ok canonical, Int64.sub (Timing.monotonic_ns ()) t0))
    in
    Array.init n (fun i ->
        let id_of_line () =
          match parsed.(i) with
          | Ok request -> request.Wire.id
          | Error _ -> Printf.sprintf "#%d" i
        in
        match resolved.(i) with
        | Pool.Done (Ok canonical, ns) ->
          resolve_ns.(i) <- ns;
          Ready canonical
        | Pool.Done (Error msg, _) -> Malformed { id = id_of_line (); error = msg }
        | Pool.Failed { error; _ } -> Malformed { id = id_of_line (); error }
        | Pool.Skipped ->
          Malformed { id = id_of_line (); error = "request cancelled" })
  in
  (* Stage 2: cache lookups in request order; coalesce equal digests. *)
  let cache_stats_before = Lru.stats t.cache in
  let pending = Hashtbl.create 16 in
  let miss_list = ref [] in
  let hits = ref 0 and coalesced = ref 0 in
  let sources =
    Array.map
      (function
        | Malformed _ -> None
        | Ready canonical -> (
          let digest = canonical.Canonical.digest in
          if Hashtbl.mem pending digest then begin
            incr coalesced;
            Some (Coalesced digest)
          end
          else
            let t0 = Timing.monotonic_ns () in
            match Lru.find t.cache digest with
            | Some value ->
              incr hits;
              Some (Hit { value; lookup_ns = Int64.sub (Timing.monotonic_ns ()) t0 })
            | None ->
              Hashtbl.add pending digest ();
              miss_list := (digest, canonical) :: !miss_list;
              Some (Missed digest)))
      dispositions
  in
  let misses = Array.of_list (List.rev !miss_list) in
  (* Stage 3: compute unique problems, isolated per problem. *)
  let outcomes =
    Pool.map_isolated t.pool (Array.length misses) (fun i -> compute (snd misses.(i)))
  in
  let results = Hashtbl.create 16 in
  Array.iteri
    (fun i outcome ->
      let digest = fst misses.(i) in
      match outcome with
      | Pool.Done (value, elapsed_ns) ->
        Lru.put t.cache digest value;
        Hashtbl.replace results digest (Ok value, elapsed_ns)
      | Pool.Failed { error; _ } -> Hashtbl.replace results digest (Error error, 0L)
      | Pool.Skipped -> Hashtbl.replace results digest (Error "request cancelled", 0L))
    outcomes;
  let evictions =
    (Lru.stats t.cache).Lru.evictions - cache_stats_before.Lru.evictions
  in
  (* Stage 4: responses in request order + latency accounting. *)
  let latencies = ref [] in
  let errors = ref 0 and infeasible = ref 0 in
  let observe ns =
    latencies := Int64.to_float ns :: !latencies;
    Telemetry.observe_ns "serve.request" ns
  in
  let rendered =
    Telemetry.span "serve.render" @@ fun () ->
    Array.mapi
      (fun i disposition ->
        let response, compute_ns =
          match disposition with
          | Malformed { id; error } ->
            ({ (Wire.response ~id Wire.Failed) with Wire.error = Some error }, 0L)
          | Ready canonical ->
            let result, elapsed_ns, compute_ns =
              match sources.(i) with
              | Some (Hit { value; lookup_ns }) -> (Ok value, lookup_ns, lookup_ns)
              | Some (Coalesced digest | Missed digest) -> (
                let coalesced =
                  match sources.(i) with Some (Coalesced _) -> true | _ -> false
                in
                match Hashtbl.find_opt results digest with
                | Some (result, elapsed_ns) ->
                  (result, elapsed_ns, if coalesced then 0L else elapsed_ns)
                | None -> (Error "internal: result missing", 0L, 0L))
              | None -> (Error "internal: no source", 0L, 0L)
            in
            observe elapsed_ns;
            (response_of_result canonical result ~elapsed_ns, compute_ns)
        in
        (match response.Wire.status with
        | Wire.Failed -> incr errors
        | Wire.Infeasible -> incr infeasible
        | Wire.Ok_mapped | Wire.Deadline -> ());
        let t0 = Timing.monotonic_ns () in
        let line = Wire.response_to_line response in
        let render_ns = Int64.sub (Timing.monotonic_ns ()) t0 in
        let source, digest =
          match disposition with
          | Malformed _ -> ("invalid", None)
          | Ready canonical ->
            ( (match canonical.Canonical.request.Wire.source with
              | `Pla _ -> "pla"
              | `Benchmark _ -> "benchmark"),
              Some canonical.Canonical.digest )
        in
        let record =
          {
            Access_log.index = i;
            id = response.Wire.id;
            source;
            digest;
            cache =
              (match sources.(i) with
              | Some (Hit _) -> Access_log.Hit
              | Some (Coalesced _) -> Access_log.Coalesced
              | Some (Missed _) -> Access_log.Miss
              | None -> Access_log.None_);
            status = Wire.status_to_string response.Wire.status;
            bytes = String.length line;
            parse_ns = parse_ns.(i);
            resolve_ns = resolve_ns.(i);
            compute_ns;
            render_ns;
          }
        in
        (line, record))
      dispositions
  in
  (* Access records strictly in request-index order, after the whole
     batch rendered: the sink sees the same sequence at any MCX_JOBS. *)
  Array.iter
    (fun (_, record) ->
      observe_access record;
      match t.on_access with Some sink -> sink record | None -> ())
    rendered;
  let responses = Array.to_list (Array.map fst rendered) in
  t.errors_total <- t.errors_total + !errors;
  let stats =
    {
      label;
      requests = n;
      hits = !hits;
      misses = Array.length misses;
      coalesced = !coalesced;
      errors = !errors;
      infeasible = !infeasible;
      evictions;
      elapsed_ns = Int64.sub (Timing.monotonic_ns ()) batch_t0;
      p50_ns = percentile_ns !latencies 50.;
      p95_ns = percentile_ns !latencies 95.;
    }
  in
  t.batches_rev <- stats :: t.batches_rev;
  (responses, stats)

let batches t = List.rev t.batches_rev
let error_count t = t.errors_total
let exit_code t = if t.errors_total > 0 then 4 else 0

let hit_rate ~hits ~misses =
  let lookups = hits + misses in
  if lookups = 0 then 0. else float_of_int hits /. float_of_int lookups

let stats_json t =
  let cache = Lru.stats t.cache in
  let batch_json (b : batch_stats) =
    Json.Obj
      [
        ("label", Json.Str b.label);
        ("requests", Json.Int b.requests);
        ("hits", Json.Int b.hits);
        ("misses", Json.Int b.misses);
        ("coalesced", Json.Int b.coalesced);
        ("errors", Json.Int b.errors);
        ("infeasible", Json.Int b.infeasible);
        ("evictions", Json.Int b.evictions);
        ("hit_rate", Json.Float (hit_rate ~hits:b.hits ~misses:b.misses));
        ("elapsed_ns", Json.Int (Int64.to_int b.elapsed_ns));
        ("p50_ns", Json.Int (Int64.to_int b.p50_ns));
        ("p95_ns", Json.Int (Int64.to_int b.p95_ns));
      ]
  in
  Json.Obj
    [
      ("schema", Json.Str "mcx-serve-stats/1");
      (* Full config snapshot: stats carry wall-clock fields already, so
         they are never byte-diffed across job counts. *)
      ("config", Mcx_util.Config.snapshot ());
      ("requests", Json.Int t.requests_total);
      ("errors", Json.Int t.errors_total);
      ( "cache",
        Json.Obj
          [
            ("capacity", Json.Int (Lru.capacity t.cache));
            ("size", Json.Int (Lru.length t.cache));
            ("hits", Json.Int cache.Lru.hits);
            ("misses", Json.Int cache.Lru.misses);
            ("insertions", Json.Int cache.Lru.insertions);
            ("evictions", Json.Int cache.Lru.evictions);
            ( "hit_rate",
              Json.Float (hit_rate ~hits:cache.Lru.hits ~misses:cache.Lru.misses) );
          ] );
      ("batches", Json.List (List.map batch_json (batches t)));
    ]

let summary_table t =
  let table =
    Mcx_util.Texttable.create
      [
        "batch"; "requests"; "hits"; "misses"; "coalesced"; "errors"; "hit%";
        "elapsed ms"; "p50 us"; "p95 us";
      ]
  in
  List.iter
    (fun (b : batch_stats) ->
      Mcx_util.Texttable.add_row table
        [
          b.label;
          string_of_int b.requests;
          string_of_int b.hits;
          string_of_int b.misses;
          string_of_int b.coalesced;
          string_of_int b.errors;
          Printf.sprintf "%.1f" (100. *. hit_rate ~hits:b.hits ~misses:b.misses);
          Printf.sprintf "%.2f" (Int64.to_float b.elapsed_ns /. 1e6);
          Printf.sprintf "%.1f" (Int64.to_float b.p50_ns /. 1e3);
          Printf.sprintf "%.1f" (Int64.to_float b.p95_ns /. 1e3);
        ])
    (batches t);
  table

let record_metrics t =
  if Telemetry.enabled () then begin
    Lru.record_metrics t.cache;
    Pool.record_metrics t.pool;
    Telemetry.declare ~help:"batches served" Telemetry.Counter "mcx_serve_batches_total";
    let batches = List.length t.batches_rev in
    if batches > 0 then Telemetry.inc ~n:batches "mcx_serve_batches_total"
  end
