(* synth: one function per operation through the paper's two synthesis
   flows, [Mcx.synthesize_two_level] with dual optimization and then
   [Mcx.synthesize_multi_level]. Functions take turns: seeded Fig. 6
   random SOPs at 8, 9, 10 and 15 inputs, then seven Table I/II circuits
   rebuilt from their Suite definition inside the operation. Complement
   and re-minimization inside the dual choice take most of the time and
   technology mapping most of the rest; mapping, verify and the service
   cache do no work. The 14- to 16-input circuits are left out: their
   dual choice alone takes seconds to minutes. Set-up draws the pool of
   random SOPs. *)

open Mcx
module Suite = Benchmarks.Suite
module Mo_cover = Logic.Mo_cover
module Network = Netlist.Network
module Probe = Harness.Probe

let sizes = [| 8; 9; 10; 15 |]
let circuits = [| "rd53"; "rd73"; "rd84"; "sqrt8"; "squar5"; "inc"; "clip" |]

(* Each round synthesizes [per_round] random SOPs of every size, then the
   circuits. Round r of a period takes pool entries [per_round * r] to
   [per_round * (r + 1) - 1], so one period of [rounds] rounds covers the
   seed's whole pool once and takes a few seconds on one core of a shared
   x86-64 virtual machine. *)
let per_round = 8
let rounds = 16
let pool_size = per_round * rounds
let random_slots = per_round * Array.length sizes
let round = random_slots + Array.length circuits

type design = {
  cover : Mo_cover.t;
  layout : Crossbar.Layout.t;
  area : int;
  dual : bool;
  multilevel : Crossbar.Multilevel.t;
  ml_area : int;
}

(* The traced run makes the calls of the two [Mcx] flows one at a time,
   so that each layer is timed on its own. *)
let synthesize cover =
  if !Probe.enabled then begin
    let chosen, report, dual =
      Probe.call "cost.dual_choice" (fun () -> Crossbar.Cost.dual_choice cover)
    in
    let layout = Probe.call "layout.of_cover" (fun () -> Crossbar.Layout.of_cover chosen) in
    let mapped = Probe.call "tech_map.map_mo" (fun () -> Netlist.Tech_map.map_mo cover) in
    let multilevel = Probe.call "multilevel.place" (fun () -> Crossbar.Multilevel.place mapped) in
    let net = mapped.Netlist.Tech_map.network in
    Probe.count "tech_map.gates" (Network.gate_count net);
    Probe.count "tech_map.inner_connections" (Network.inner_connection_count net);
    Probe.count "synth.products" (Mo_cover.product_count chosen);
    Probe.count "synth.dual_chosen" (Bool.to_int dual);
    {
      cover;
      layout;
      area = report.Crossbar.Cost.area;
      dual;
      multilevel;
      ml_area = (Crossbar.Cost.multi_level mapped).Crossbar.Cost.area;
    }
  end
  else begin
    let layout, report, dual = Mcx.synthesize_two_level cover in
    let multilevel, ml_report = Mcx.synthesize_multi_level cover in
    {
      cover;
      layout;
      area = report.Crossbar.Cost.area;
      dual;
      multilevel;
      ml_area = ml_report.Crossbar.Cost.area;
    }
  end

(* [evaluate]: check the designs against their function on every input
   vector. Later periods repeat the first period's designs, which the gate
   compares by their summary code, so each design is evaluated once. *)
let judge ~evaluate d =
  let problem =
    if not evaluate then None
    else
      let reference = Check.cover_tables d.cover in
      let two_level = if d.dual then Array.map Check.Tt.not_ reference else reference in
      if not (Check.tables_equal (Check.two_level_tables d.layout) two_level) then
        Some "the two-level design does not compute its function"
      else
        match Check.multi_level_tables d.multilevel with
        | Error msg -> Some ("multi-level design: " ^ msg)
        | Ok tables when not (Check.tables_equal tables reference) ->
          Some "the multi-level design does not compute its function"
        | Ok _ -> None
  in
  let net = d.multilevel.Crossbar.Multilevel.mapped.Netlist.Tech_map.network in
  let products =
    Mo_cover.product_count d.layout.Crossbar.Layout.fm.Crossbar.Function_matrix.cover
  in
  {
    Harness.code =
      Printf.sprintf "%d/%s/%d/%d/%d/%d" d.area
        (if d.dual then "dual" else "direct")
        products d.ml_area (Network.gate_count net) (Network.inner_connection_count net);
    problem;
  }

let make ~seed =
  let pool = ref [||] and last = ref None in
  (* The Fig. 6 parameters of pool entry j (product count, literal
     density) come from a key that does not depend on the seed, and its
     products from the seed, so each seed draws other functions of the
     same sizes and its cost varies little from seed to seed. *)
  let setup () =
    pool :=
      Array.map
        (fun n_inputs ->
          let shape = Util.Prng.Key.(int (string (root 0) "perfbench.synth.shape") n_inputs) in
          let key = Util.Prng.Key.(int (string (root seed) "perfbench.synth") n_inputs) in
          Array.init pool_size (fun j ->
              let params = Logic.Random_sop.paper_params (Util.Prng.derive shape j) ~n_inputs in
              Mo_cover.of_single (Logic.Random_sop.random_cover (Util.Prng.derive key j) params)))
        sizes
  in
  let step i =
    let slot = i mod round in
    let cover =
      if slot < random_slots then
        !pool.(slot / per_round).((per_round * (i / round mod rounds)) + (slot mod per_round))
      else
        let c = Suite.find circuits.(slot - random_slots) in
        Probe.call "suite.build" (fun () -> Harness.cover_of_source c.Suite.source)
    in
    last := Some (synthesize cover)
  in
  {
    Harness.period = round * rounds;
    ops_per_unit = 1;
    traced_periods = 2;
    setup;
    prepare = ignore;
    step;
    check = (fun i -> [ judge ~evaluate:(i < round * rounds) (Option.get !last) ]);
  }
