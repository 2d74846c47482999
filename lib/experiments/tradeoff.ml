open Mcx_crossbar
open Mcx_benchmarks

type row = {
  benchmark : string;
  two_area : int;
  multi_area : int;
  two_steps : int;
  multi_steps_serial : int;
  multi_steps_parallel : int;
  two_writes : int;
  multi_writes : int;
}

let run ?(benchmarks = [ "rd53"; "squar5"; "sqrt8"; "inc"; "rd73"; "t481" ]) () =
  Mcx_util.Telemetry.span "experiment.tradeoff" @@ fun () ->
  let benches = Array.of_list benchmarks in
  Array.to_list
    (Mcx_util.Pool.map (Mcx_util.Pool.default ()) (Array.length benches) (fun i ->
         let name = benches.(i) in
         let cover = Suite.cover (Suite.find name) in
         let mapped = Mcx_netlist.Tech_map.map_mo cover in
         {
           benchmark = name;
           two_area = (Cost.two_level cover).Cost.area;
           multi_area = Cost.multi_level_area mapped;
           two_steps = Cost.two_level_steps;
           multi_steps_serial = Cost.multi_level_steps mapped;
           multi_steps_parallel = Cost.multi_level_steps ~level_parallel:true mapped;
           two_writes = Cost.two_level_writes cover;
           multi_writes = Cost.multi_level_writes mapped;
         }))

let to_table rows =
  let table =
    Mcx_util.Texttable.create
      [
        "bench"; "2lvl area"; "multi area"; "2lvl steps"; "multi steps";
        "multi steps (lvl-par)"; "2lvl writes"; "multi writes";
      ]
  in
  List.iter
    (fun r ->
      Mcx_util.Texttable.add_row table
        [
          r.benchmark;
          string_of_int r.two_area;
          string_of_int r.multi_area;
          string_of_int r.two_steps;
          string_of_int r.multi_steps_serial;
          string_of_int r.multi_steps_parallel;
          string_of_int r.two_writes;
          string_of_int r.multi_writes;
        ])
    rows;
  table
