(* table2: one Table II trial per operation (§V). An operation draws a
   10 % stuck-open defect map for one of the 16 Table II circuits, in
   turn, and maps the circuit's implementation cover (the cheaper of the
   circuit and its negation) onto it with HBA, then EA, on an
   optimum-size crossbar. EA takes almost all of the time, so a faster
   matcher shows here; verify, the service cache and synthesis do no
   work. Set-up builds the covers, negations and function matrices. *)

open Mcx
module Suite = Benchmarks.Suite
module Mo_cover = Logic.Mo_cover
module Function_matrix = Crossbar.Function_matrix
module Geometry = Crossbar.Geometry
module Hybrid = Mapping.Hybrid
module Prng = Util.Prng
module Probe = Harness.Probe

let defect_rate = 0.10

(* Trial k of a circuit draws defect map k mod [cycle], so the inputs
   repeat after [cycle] trials of every circuit: one period. A period
   takes about two seconds on one core of a shared x86-64 virtual
   machine, so a timed run holds several. The trial time
   of a circuit varies by a few per cent from map to map, far less than
   from circuit to circuit, so two maps per circuit and seed suffice. *)
let cycle = 2

type circuit = { name : string; fm : Function_matrix.t; rows : int; cols : int }

let area cover =
  Crossbar.Cost.two_level_area ~n_inputs:(Mo_cover.n_inputs cover)
    ~n_outputs:(Mo_cover.n_outputs cover) ~n_products:(Mo_cover.product_count cover) ()

let build_circuit (b : Suite.t) =
  let direct = Probe.call "suite.build" (fun () -> Harness.cover_of_source b.Suite.source) in
  let negated = Probe.call "suite.build" (fun () -> Harness.cover_of_source b.Suite.negation) in
  let cover = if area negated < area direct then negated else direct in
  let fm = Probe.call "function_matrix.build" (fun () -> Function_matrix.build cover) in
  let g = fm.Function_matrix.geometry in
  { name = b.Suite.name; fm; rows = Geometry.rows g; cols = Geometry.cols g }

type trial = {
  circuit : circuit;
  cm : Util.Bmatrix.t;
  hba : int array option;
  ea : int array option;
}

let judge t =
  let required = Check.required_columns t.circuit.fm.Function_matrix.matrix in
  let functional = Check.functional_of_cm t.cm in
  let invalid algorithm = function
    | None -> None
    | Some a ->
      Option.map
        (Printf.sprintf "%s mapping of %s: %s" algorithm t.circuit.name)
        (Check.assignment_problem ~required ~functional a)
  in
  let hba = Option.is_some t.hba and ea = Option.is_some t.ea in
  let problem =
    match (invalid "HBA" t.hba, invalid "EA" t.ea) with
    | (Some _ as p), _ | None, (Some _ as p) -> p
    | None, None ->
      if hba && not ea then Some (t.circuit.name ^ ": HBA mapped a crossbar EA called infeasible")
      else if (not ea) && Check.assignment_exists ~required ~functional then
        Some (t.circuit.name ^ ": EA called a mappable crossbar infeasible")
      else None
  in
  { Harness.code = string_of_int ((if hba then 2 else 0) + if ea then 1 else 0); problem }

let make ~seed =
  let circuits = ref [||] and last = ref None in
  let key = Prng.Key.(string (root seed) "perfbench.table2") in
  let setup () = circuits := Array.of_list (List.map build_circuit Suite.table2) in
  let step i =
    let n = Array.length !circuits in
    let c = !circuits.(i mod n) in
    let prng = Prng.derive (Prng.Key.string key c.name) (i / n mod cycle) in
    let defects =
      Probe.call "defect_map.random" (fun () ->
          Crossbar.Defect_map.random prng ~rows:c.rows ~cols:c.cols ~open_rate:defect_rate
            ~closed_rate:0.)
    in
    let cm = Probe.call "matching.cm_of_defects" (fun () -> Mapping.Matching.cm_of_defects defects) in
    let hba, stats = Probe.call "hybrid.map" (fun () -> Hybrid.map_with_stats c.fm cm) in
    let ea = Probe.call "exact.map" (fun () -> Mapping.Exact.map c.fm cm) in
    Probe.count "hybrid.found" (Bool.to_int (Option.is_some hba));
    Probe.count "hybrid.backtracks" stats.Hybrid.backtracks;
    Probe.count "hybrid.relocations" stats.Hybrid.relocations;
    Probe.count "exact.found" (Bool.to_int (Option.is_some ea));
    last := Some { circuit = c; cm; hba; ea }
  in
  {
    Harness.period = List.length Suite.table2 * cycle;
    ops_per_unit = 1;
    traced_periods = 4;
    setup;
    prepare = ignore;
    step;
    check = (fun _ -> [ judge (Option.get !last) ]);
  }
