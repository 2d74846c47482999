open Mcx_util
open Mcx_logic
open Mcx_crossbar
open Mcx_benchmarks

type point = {
  upset_rate : float;
  two_level_error_rate : float;
  multi_level_error_rate : float;
}

type result = {
  benchmark : string;
  evaluations : int;
  two_level_writes : int;
  multi_level_writes : int;
  points : point list;
}

let run ?pool ?(evaluations = 300) ?(upset_rates = [ 1e-4; 3e-4; 1e-3; 3e-3 ]) ~seed
    ~benchmark () =
  Telemetry.span "experiment.transient" @@ fun () ->
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let bench = Suite.find benchmark in
  let cover = Suite.cover bench in
  let n = Mo_cover.n_inputs cover in
  let layout = Layout.of_cover cover in
  let mapped = Mcx_netlist.Tech_map.map_mo cover in
  let ml = Multilevel.place mapped in
  let key = Prng.Key.(string (string (root seed) "transient") benchmark) in
  let point upset_rate =
    let point_key = Prng.Key.float key upset_rate in
    let trial i =
      let prng = Prng.derive point_key i in
      let v = Array.init n (fun _ -> Prng.bool prng) in
      let reference = Mo_cover.eval cover v in
      let two_wrong = Sim.run_with_upsets ~prng ~upset_rate layout v <> reference in
      let multi_wrong =
        Multilevel.run_with_upsets ~prng ~upset_rate ml v <> reference
      in
      (two_wrong, multi_wrong)
    in
    let two_errors, multi_errors =
      Array.fold_left
        (fun (two, multi) (two_wrong, multi_wrong) ->
          ((if two_wrong then two + 1 else two), if multi_wrong then multi + 1 else multi))
        (0, 0)
        (Pool.map pool evaluations trial)
    in
    let pct c = 100. *. float_of_int c /. float_of_int (max 1 evaluations) in
    {
      upset_rate;
      two_level_error_rate = pct two_errors;
      multi_level_error_rate = pct multi_errors;
    }
  in
  {
    benchmark;
    evaluations;
    two_level_writes = Cost.two_level_writes cover;
    multi_level_writes = Cost.multi_level_writes mapped;
    points = List.map point upset_rates;
  }

let to_table result =
  let table =
    Texttable.create
      [ "upset rate / write"; "2-level error %"; "multi-level error %" ]
  in
  List.iter
    (fun p ->
      Texttable.add_row table
        [
          Printf.sprintf "%.4f%%" (100. *. p.upset_rate);
          Printf.sprintf "%.1f" p.two_level_error_rate;
          Printf.sprintf "%.1f" p.multi_level_error_rate;
        ])
    result.points;
  table
