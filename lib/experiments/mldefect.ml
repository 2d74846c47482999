open Mcx_util
open Mcx_crossbar
open Mcx_mapping
open Mcx_benchmarks

type point = { defect_rate : float; psucc : float; all_simulations_correct : bool }

type result = {
  benchmark : string;
  gates : int;
  area : int;
  spare_rows : int;
  samples : int;
  points : point list;
}

let run ?pool ?(samples = 100) ?(defect_rates = [ 0.02; 0.05; 0.10; 0.15 ])
    ?(spare_rows = 0) ~seed ~benchmark () =
  Telemetry.span "experiment.mldefect" @@ fun () ->
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let bench = Suite.find benchmark in
  let cover = Suite.cover bench in
  let mapped = Mcx_netlist.Tech_map.map_mo cover in
  let reference_ml = Multilevel.place mapped in
  let fm = Multilevel.function_matrix reference_ml in
  let physical_rows = reference_ml.Multilevel.rows + spare_rows in
  let gate_rows = List.init (reference_ml.Multilevel.rows - 1) Fun.id in
  let latch_row = reference_ml.Multilevel.rows - 1 in
  let key =
    Prng.Key.(int (string (string (root seed) "mldefect") benchmark) spare_rows)
  in
  let point defect_rate =
    let point_key = Prng.Key.float key defect_rate in
    let trial i =
      let prng = Prng.derive point_key i in
      let defects =
        Defect_map.random prng ~rows:physical_rows ~cols:reference_ml.Multilevel.cols
          ~open_rate:defect_rate ~closed_rate:0.
      in
      let cm = Matching.cm_of_defects defects in
      let assignment, _stats =
        Hybrid.map_rows ~fm ~greedy_rows:gate_rows ~assignment_rows:[ latch_row ] cm
      in
      match assignment with
      | Some row_assignment ->
        let placed = Multilevel.place ~row_assignment ~physical_rows mapped in
        (true, Multilevel.agrees_with_reference ~defects placed cover)
      | None -> (false, true)
    in
    let hits, all_ok =
      Array.fold_left
        (fun (hits, ok) (hit, valid) -> ((if hit then hits + 1 else hits), ok && valid))
        (0, true)
        (Pool.map pool samples trial)
    in
    {
      defect_rate;
      psucc = 100. *. float_of_int hits /. float_of_int (max 1 samples);
      all_simulations_correct = all_ok;
    }
  in
  {
    benchmark;
    gates = Mcx_netlist.Network.gate_count mapped.Mcx_netlist.Tech_map.network;
    area = physical_rows * reference_ml.Multilevel.cols;
    spare_rows;
    samples;
    points = List.map point defect_rates;
  }

let to_table result =
  let table =
    Texttable.create [ "defect rate %"; "Psucc %"; "simulations correct" ]
  in
  List.iter
    (fun p ->
      Texttable.add_row table
        [
          Printf.sprintf "%.0f" (100. *. p.defect_rate);
          Printf.sprintf "%.0f" p.psucc;
          (if p.all_simulations_correct then "yes" else "NO");
        ])
    result.points;
  table
