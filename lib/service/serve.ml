(* The three-stage batch dispatcher. Every per-request decision is made
   in request-index order from index-ordered outcome arrays, which is
   what makes served output byte-identical at any MCX_JOBS and across
   cache states. *)

module Pool = Mcx_util.Pool
module Lru = Mcx_util.Lru
module Telemetry = Mcx_util.Telemetry
module Timing = Mcx_util.Timing
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
}

type result_value =
  | Mapped of { assignment : int array; verified : bool option }
  | Unmappable

type t = {
  pool : Pool.t;
  cache : result_value Lru.t;
  on_access : (Access_log.record -> unit) option;
  mutable errors_total : int;
}

let create ?pool ?cache_capacity ?on_access () =
  let pool = match pool with Some p -> p | None -> Pool.default () in
  (* MCX_CACHE_SIZE sizes the mapping cache unless the caller passes a
     capacity; responses are cache-invariant ("warm = cold" test), only
     latency changes. *)
  let capacity =
    match cache_capacity with Some c -> c | None -> Mcx_util.Config.cache_size ()
  in
  { pool; cache = Lru.create ~name:"serve.cache" ~capacity (); on_access; errors_total = 0 }

(* Per-request disposition after the resolve stage, in line order. A
   malformed request keeps its source kind when it parsed. *)
type disposition =
  | Malformed of { id : string; source : string; error : string }
  | Ready of Canonical.t

let source_kind (request : Wire.request) =
  match request.Wire.source with `Pla _ -> "pla" | `Benchmark _ -> "benchmark"

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
         need exponential memory and nothing bounds a request's work yet:
         on x_i x_(i+n/2), verify takes 0.06 s and 16 MB peak RSS at
         n = 28, 0.3 s and 49 MB at n = 32, 1.5 s and 182 MB at n = 36. *)
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

(* [elapsed_ns] exceeds [budget_ms] milliseconds. Dividing the elapsed
   time instead of multiplying the budget cannot overflow, so a budget
   whose nanoseconds exceed Int64 never expires. *)
let past_deadline ~elapsed_ns budget_ms =
  let c = Int64.compare (Int64.div elapsed_ns 1_000_000L) (Int64.of_int budget_ms) in
  c > 0 || (c = 0 && Int64.compare (Int64.rem elapsed_ns 1_000_000L) 0L > 0)

let response_of_result (canonical : Canonical.t) result ~elapsed_ns =
  let request = canonical.Canonical.request in
  let base = Wire.response ~id:request.Wire.id in
  let with_digest r = { r with Wire.digest = Some canonical.Canonical.digest } in
  match result with
  | Error msg -> with_digest { (base Wire.Failed) with Wire.error = Some msg }
  | Ok Unmappable -> with_digest (base Wire.Infeasible)
  | Ok (Mapped { assignment; verified }) -> (
    match request.Wire.config.Wire.deadline_ms with
    | Some budget_ms when past_deadline ~elapsed_ns budget_ms -> with_digest (base Wire.Deadline)
    | Some _ | None ->
      with_digest
        {
          (base Wire.Ok_mapped) with
          Wire.rows = Some (Mcx_crossbar.Geometry.rows canonical.Canonical.geometry);
          cols = Some (Mcx_crossbar.Geometry.cols canonical.Canonical.geometry);
          assignment = Some (Canonical.translate_assignment canonical assignment);
          verified;
        })

let serve_batch t ~label lines =
  Telemetry.span "serve.batch" @@ fun () ->
  let lines = Array.of_list lines in
  let n = Array.length lines in
  Telemetry.count ~n "serve.requests";
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
    (* An invalid request ([Canonical.resolve]'s documented raises)
       answers with its own message; anything else is a fault that
       [map_isolated] captures. *)
    let resolved =
      Pool.map_isolated t.pool n (fun i ->
          match parsed.(i) with
          | Error msg -> (Error msg, 0L)
          | Ok request ->
            let t0 = Timing.monotonic_ns () in
            let canonical =
              match Canonical.resolve request with
              | canonical -> Ok canonical
              | exception (Failure msg | Invalid_argument msg) -> Error msg
            in
            (canonical, Int64.sub (Timing.monotonic_ns ()) t0))
    in
    Array.init n (fun i ->
        let malformed error =
          match parsed.(i) with
          | Ok request -> Malformed { id = request.Wire.id; source = source_kind request; error }
          | Error _ -> Malformed { id = Printf.sprintf "#%d" i; source = "invalid"; error }
        in
        match resolved.(i) with
        | Pool.Done (result, ns) -> (
          resolve_ns.(i) <- ns;
          match result with Ok canonical -> Ready canonical | Error msg -> malformed msg)
        | Pool.Failed error -> malformed error)
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
      | Pool.Failed error -> Hashtbl.replace results digest (Error error, 0L))
    outcomes;
  let evictions =
    (Lru.stats t.cache).Lru.evictions - cache_stats_before.Lru.evictions
  in
  (* Stage 4: responses in request order + latency accounting. *)
  let errors = ref 0 and infeasible = ref 0 in
  let rendered =
    Telemetry.span "serve.render" @@ fun () ->
    Array.mapi
      (fun i disposition ->
        let response, compute_ns =
          match disposition with
          | Malformed { id; error; _ } ->
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
          | Malformed { source; _ } -> (source, None)
          | Ready canonical ->
            (source_kind canonical.Canonical.request, Some canonical.Canonical.digest)
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
  Option.iter (fun sink -> Array.iter (fun (_, record) -> sink record) rendered) t.on_access;
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
    }
  in
  (responses, stats)

let exit_code t = if t.errors_total > 0 then 4 else 0
