open Mcx_benchmarks

type row = {
  name : string;
  orig_two_level : int;
  orig_multi_level : int;
  neg_two_level : int;
  neg_multi_level : int;
  paper : (int * int * int * int) option;
}

let areas cover =
  let two = (Mcx_crossbar.Cost.two_level cover).Mcx_crossbar.Cost.area in
  let multi = Mcx_crossbar.Cost.multi_level_area (Mcx_netlist.Tech_map.map_mo cover) in
  (two, multi)

let run_row bench =
  let orig_two_level, orig_multi_level = areas (Suite.cover bench) in
  let neg_two_level, neg_multi_level = areas (Suite.negated_cover bench) in
  {
    name = bench.Suite.name;
    orig_two_level;
    orig_multi_level;
    neg_two_level;
    neg_multi_level;
    paper = bench.Suite.paper.Suite.table1;
  }

let run ?benchmarks () =
  Mcx_util.Telemetry.span "experiment.table1" @@ fun () ->
  let selected =
    match benchmarks with
    | None -> Suite.table1
    | Some names -> List.map Suite.find names
  in
  (* Each row costs a full synthesis of the function and its dual, so
     the rows are spread over the pool. *)
  let benches = Array.of_list selected in
  Array.to_list
    (Mcx_util.Pool.map (Mcx_util.Pool.default ()) (Array.length benches) (fun i ->
         run_row benches.(i)))

let to_table rows =
  let table =
    Mcx_util.Texttable.create
      [
        "bench"; "2lvl"; "2lvl paper"; "multi"; "multi paper"; "neg 2lvl";
        "neg 2lvl paper"; "neg multi"; "neg multi paper";
      ]
  in
  let paper_cell f row = match row.paper with Some p -> string_of_int (f p) | None -> "-" in
  List.iter
    (fun row ->
      Mcx_util.Texttable.add_row table
        [
          row.name;
          string_of_int row.orig_two_level;
          paper_cell (fun (a, _, _, _) -> a) row;
          string_of_int row.orig_multi_level;
          paper_cell (fun (_, b, _, _) -> b) row;
          string_of_int row.neg_two_level;
          paper_cell (fun (_, _, c, _) -> c) row;
          string_of_int row.neg_multi_level;
          paper_cell (fun (_, _, _, d) -> d) row;
        ])
    rows;
  table
