(* serve: mapping requests through [Serve.serve_batch], the dispatcher
   behind memx serve. One closed-loop client sends batches of 8 and waits
   for each reply; an operation is one request and its latency its
   batch's round trip. A period is 200 batches (1600 requests) sent by a
   fresh client to a fresh server whose cache holds 128 results, fewer
   than the period's distinct problems. A fifth of the batches cost about
   ten times the median one, so the latency percentiles need this many
   batches to fall among neighbours close in cost. The mix follows the
   repository's request sample, examples/serve_requests.jsonl: about
   70 % bundled circuits and 30 % inline PLAs of 4 to 8 inputs; 80 % of
   new problems carry seeded 2-10 % stuck-open defects, the rest none;
   15 % ask for the exact algorithm and 35 % for verification; half the
   requests repeat one of the last 32 new problems, a bundled circuit
   verbatim and an inline PLA with its inputs relabeled (its defects then
   go out as an explicit list), so the bundled/PLA shares hold for the
   whole stream. A miss spends most of its time in exhaustive verify and exact
   mapping, a hit only in parsing and canonicalization, so the mapping
   layer runs once per distinct problem and cache reads sit next to
   inserts and evictions.

   The traced run times the dispatcher as a whole and then, outside it,
   the layer calls it made: parsing and resolving every request,
   rendering every response, and mapping and verifying the requests the
   server's access records mark as misses. *)

open Mcx
module Wire = Mcx_service.Wire
module Serve = Mcx_service.Serve
module Canonical = Mcx_service.Canonical
module Access_log = Mcx_service.Access_log
module Json = Util.Json_out
module Prng = Util.Prng
module Mo_cover = Logic.Mo_cover
module Geometry = Crossbar.Geometry
module Defect_map = Crossbar.Defect_map
module Junction = Crossbar.Junction
module Mapper = Mapping.Mapper
module Suite = Benchmarks.Suite
module Probe = Harness.Probe

let circuits =
  [| "rd53"; "misex1"; "bw"; "sqrt8"; "squar5"; "inc"; "rd73"; "clip"; "sao2"; "rd84" |]

let batch_size = 8
let period_batches = 200
let cache_capacity = 128
let recent = 32

type problem = {
  source : [ `Pla of string | `Benchmark of string ];
  cover : Mo_cover.t;
  defects : Wire.defects_spec;
  algorithm : Mapper.algorithm;
  verify : bool;
}

let geometry cover =
  Geometry.create ~n_inputs:(Mo_cover.n_inputs cover) ~n_outputs:(Mo_cover.n_outputs cover)
    ~n_products:(Mo_cover.product_count cover) ()

(* The physical crossbar a request describes, as the wire format defines
   it. *)
let defect_map cover spec =
  let g = geometry cover in
  let rows = Geometry.rows g and cols = Geometry.cols g in
  match spec with
  | Wire.Pristine -> Defect_map.create ~rows ~cols
  | Wire.Seeded { seed; open_rate; closed_rate } ->
    Defect_map.random (Prng.create seed) ~rows ~cols ~open_rate ~closed_rate
  | Wire.Explicit { stuck_open; stuck_closed; _ } ->
    let d = Defect_map.create ~rows ~cols in
    List.iter (fun (r, c) -> Defect_map.set d r c Junction.Stuck_open) stuck_open;
    List.iter (fun (r, c) -> Defect_map.set d r c Junction.Stuck_closed) stuck_closed;
    d

(* --- the client ------------------------------------------------------- *)

(* Two generators drive the client. [mix] draws the kind of every request
   (new or repeated, which recent problem it repeats, the circuit or the
   PLA's size, the defect rate, the algorithm, the verify flag) from a key
   that does not depend on the seed, so every seed sends the same mix in
   the same order and its cost varies little from seed to seed. [content]
   draws what the seed varies: the defect maps, the PLA functions and the
   relabelings. *)
type client = {
  mix : Prng.t;
  content : Prng.t;
  mutable recent_problems : problem list;  (** newest first, at most [recent] *)
  mutable sent : int;
}

let new_client ~seed =
  {
    mix = Prng.of_key Prng.Key.(string (root 0) "perfbench.serve.mix");
    content = Prng.of_key Prng.Key.(string (root seed) "perfbench.serve");
    recent_problems = [];
    sent = 0;
  }

let random_pla c =
  let n_inputs = 4 + Prng.int c.mix 5 in
  let n_outputs = 1 + Prng.int c.mix 3 in
  let covers = ref [] in
  for _ = 1 to n_outputs do
    let params = Logic.Random_sop.paper_params c.mix ~n_inputs in
    covers := Logic.Random_sop.random_cover c.content params :: !covers
  done;
  Mo_cover.of_covers (List.rev !covers)

let fresh c =
  let source, cover =
    if Prng.float c.mix < 0.7 then begin
      let name = Prng.choose c.mix circuits in
      (`Benchmark name, Suite.cover (Suite.find name))
    end
    else begin
      let cover = random_pla c in
      (`Pla (Logic.Pla.to_string cover), cover)
    end
  in
  let defects =
    if Prng.float c.mix < 0.8 then begin
      let open_rate = float_of_int (20 + Prng.int c.mix 81) /. 1000. in
      Wire.Seeded { seed = Prng.int c.content 1_000_000_000; open_rate; closed_rate = 0. }
    end
    else Wire.Pristine
  in
  let algorithm = if Prng.float c.mix < 0.15 then Mapper.Exact else Mapper.Hybrid in
  let verify = Prng.float c.mix < 0.35 in
  { source; cover; defects; algorithm; verify }

(* The same problem with its inputs renamed and its product rows
   reordered, sent as an inline PLA; stuck-open junctions move with the
   literal columns of their variables, so the crossbar is the same. A
   cover with repeated cubes would lose rows in PLA text, so it is
   repeated verbatim instead. *)
let relabel prng p =
  let n = Mo_cover.n_inputs p.cover in
  let perm = Array.init n Fun.id in
  Prng.shuffle_in_place prng perm;
  let rows = Array.of_list (Mo_cover.rows (Mo_cover.permute_vars p.cover ~perm)) in
  Prng.shuffle_in_place prng rows;
  let cover =
    Mo_cover.create ~n_inputs:n ~n_outputs:(Mo_cover.n_outputs p.cover) (Array.to_list rows)
  in
  if Mo_cover.product_count cover <> Mo_cover.product_count p.cover then p
  else
  let defects =
    match p.defects with
    | Wire.Pristine -> Wire.Pristine
    | (Wire.Seeded _ | Wire.Explicit _) as spec ->
      let g = geometry p.cover in
      let d = defect_map p.cover spec in
      let moved j =
        match Geometry.column_role g j with
        | Geometry.Input_pos v -> Geometry.column_of_role g (Geometry.Input_pos perm.(v))
        | Geometry.Input_neg v -> Geometry.column_of_role g (Geometry.Input_neg perm.(v))
        | Geometry.Output_main _ | Geometry.Output_comp _ -> j
      in
      let stuck_open = ref [] in
      for r = Geometry.rows g - 1 downto 0 do
        for j = Geometry.cols g - 1 downto 0 do
          match Defect_map.get d r j with
          | Junction.Stuck_open -> stuck_open := (r, moved j) :: !stuck_open
          | Junction.Functional | Junction.Stuck_closed -> ()
        done
      done;
      Wire.Explicit
        { rows = Geometry.rows g; cols = Geometry.cols g; stuck_open = !stuck_open; stuck_closed = [] }
  in
  { p with source = `Pla (Logic.Pla.to_string cover); cover; defects }

let next_problem c =
  match c.recent_problems with
  | _ :: _ when Prng.float c.mix < 0.5 -> (
    let p = List.nth c.recent_problems (Prng.int c.mix (List.length c.recent_problems)) in
    match p.source with `Benchmark _ -> p | `Pla _ -> relabel c.content p)
  | _ ->
    let p = fresh c in
    c.recent_problems <- List.filteri (fun i _ -> i < recent) (p :: c.recent_problems);
    p

let request_line c p =
  let id = Printf.sprintf "q%d" c.sent in
  c.sent <- c.sent + 1;
  let config =
    {
      Wire.default_config with
      Wire.mapper = { Mapper.default with Mapper.algorithm = p.algorithm };
      verify = p.verify;
    }
  in
  (id, Json.to_string (Wire.request_to_json { Wire.id; source = p.source; defects = p.defects; config }))

(* --- responses -------------------------------------------------------- *)

let response_of_line line =
  match Json.of_string line with
  | Error _ -> None
  | Ok json ->
    let field name conv = Option.bind (Json.member name json) conv in
    let status =
      match field "status" Json.to_string_opt with
      | Some "ok" -> Some Wire.Ok_mapped
      | Some "infeasible" -> Some Wire.Infeasible
      | Some "deadline" -> Some Wire.Deadline
      | Some "error" -> Some Wire.Failed
      | Some _ | None -> None
    in
    let assignment =
      Option.map
        (fun items -> Array.of_list (List.filter_map Json.to_int_opt items))
        (field "assignment" Json.to_list_opt)
    in
    Option.map
      (fun status ->
        {
          Wire.id = Option.value ~default:"" (field "id" Json.to_string_opt);
          status;
          digest = field "digest" Json.to_string_opt;
          rows = field "rows" Json.to_int_opt;
          cols = field "cols" Json.to_int_opt;
          assignment;
          verified = field "verified" Json.to_bool_opt;
          error = field "error" Json.to_string_opt;
        })
      status

(* The request as the client sent it: its own function and crossbar. *)
let original p =
  let cover =
    match p.source with
    | `Pla text -> (Logic.Pla.parse_string text).Logic.Pla.cover
    | `Benchmark name -> Suite.cover (Suite.find name)
  in
  ( Check.required_columns (Crossbar.Function_matrix.build cover).Crossbar.Function_matrix.matrix,
    Check.functional_of_defects (defect_map cover p.defects) )

let judge (id, p) line =
  match response_of_line line with
  | None -> { Harness.code = "?"; problem = Some ("unreadable response " ^ line) }
  | Some r ->
    let required, functional = original p in
    let problem =
      if not (String.equal r.Wire.id id) then
        Some (Printf.sprintf "response %s answers request %s" r.Wire.id id)
      else
        match r.Wire.status with
        | Wire.Failed -> Some ("error response: " ^ Option.value ~default:"" r.Wire.error)
        | Wire.Deadline -> Some "deadline response to a request without a deadline"
        | Wire.Infeasible ->
          (* Only EA's verdict, or one on a pristine crossbar, is a proof. *)
          let proof =
            match (p.algorithm, p.defects) with
            | Mapper.Exact, _ | _, Wire.Pristine -> true
            | Mapper.Hybrid, (Wire.Seeded _ | Wire.Explicit _) -> false
          in
          if proof && Check.assignment_exists ~required ~functional then
            Some "reported infeasible, but a valid assignment exists"
          else None
        | Wire.Ok_mapped -> (
          match r.Wire.assignment with
          | None -> Some "ok response without an assignment"
          | Some a -> (
            match Check.assignment_problem ~required ~functional a with
            | Some _ as problem -> problem
            | None -> (
              match (p.verify, r.Wire.verified) with
              | true, Some true | false, None -> None
              | true, (Some false | None) -> Some "verification requested but not passed"
              | false, Some _ -> Some "verification reported but not requested")))
    in
    { Harness.code = Wire.status_to_string r.Wire.status; problem }

(* --- traced replay ---------------------------------------------------- *)

let replay lines responses records =
  let records = Array.of_list records in
  List.iteri
    (fun index line ->
      match Probe.call "wire.request_of_line" (fun () -> Wire.request_of_line ~index line) with
      | Error _ -> ()
      | Ok request -> (
        let canonical = Probe.call "canonical.resolve" (fun () -> Canonical.resolve request) in
        match records.(index).Access_log.cache with
        | Access_log.Miss -> (
          let config = request.Wire.config in
          match
            Probe.call "mapper.map_cover" (fun () ->
                Mapper.map_cover config.Wire.mapper canonical.Canonical.cover
                  canonical.Canonical.defects)
          with
          | Some layout when config.Wire.verify ->
            ignore
              (Probe.call "mcx.verify" (fun () ->
                   Mcx.verify ~defects:canonical.Canonical.defects layout))
          | Some _ | None -> ())
        | Access_log.Hit | Access_log.Coalesced | Access_log.None_ -> ()))
    lines;
  List.iter
    (fun line ->
      match response_of_line line with
      | None -> failwith ("unreadable response " ^ line)
      | Some r ->
        let again = Probe.call "wire.response_to_line" (fun () -> Wire.response_to_line r) in
        if not (String.equal again line) then failwith ("re-rendered response differs: " ^ line))
    responses

let make ~seed =
  let client = ref (new_client ~seed) in
  let server = ref None and records = ref [] in
  let pending = ref [] and answered = ref [] in
  let pool = Util.Pool.create ~jobs:1 () in
  let new_server () =
    let on_access record = records := record :: !records in
    server := Some (Serve.create ~pool ~cache_capacity ~on_access ())
  in
  let setup () =
    new_server ();
    Array.iter
      (fun name ->
        let request =
          { Wire.id = name; source = `Benchmark name; defects = Wire.Pristine; config = Wire.default_config }
        in
        ignore (Probe.call "canonical.resolve" (fun () -> Canonical.resolve request)))
      circuits
  in
  let prepare i =
    if i > 0 && i mod period_batches = 0 then begin
      client := new_client ~seed;
      new_server ()
    end;
    pending := [];
    for _ = 1 to batch_size do
      let p = next_problem !client in
      let id, line = request_line !client p in
      pending := (id, p, line) :: !pending
    done;
    pending := List.rev !pending
  in
  let step i =
    let server = Option.get !server in
    let lines = List.map (fun (_, _, line) -> line) !pending in
    records := [];
    let responses, stats =
      Probe.call "serve.serve_batch" (fun () ->
          Serve.serve_batch server ~label:(string_of_int i) lines)
    in
    Probe.count "serve.cache.hits" stats.Serve.hits;
    Probe.count "serve.cache.misses" stats.Serve.misses;
    Probe.count "serve.cache.coalesced" stats.Serve.coalesced;
    Probe.count "serve.cache.evictions" stats.Serve.evictions;
    if !Probe.enabled then replay lines responses (List.rev !records);
    answered := responses
  in
  let check _ = List.map2 (fun (id, p, _) line -> judge (id, p) line) !pending !answered in
  {
    Harness.period = period_batches;
    ops_per_unit = batch_size;
    traced_periods = 1;
    setup;
    prepare;
    step;
    check;
  }
