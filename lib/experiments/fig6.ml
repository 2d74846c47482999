open Mcx_logic
open Mcx_util

type sample = {
  n_products : int;
  two_level_area : int;
  multi_level_area : int;
  gates : int;
}

type panel = { n_inputs : int; samples : sample list; success_rate : float }

let paper_success_rate = function
  | 8 -> Some 65.
  | 9 -> Some 60.
  | 10 -> Some 54.
  | 15 -> Some 33.
  | _ -> None

let one_sample prng ~n_inputs =
  let params = Random_sop.paper_params prng ~n_inputs in
  let f = Random_sop.random_cover prng params in
  let mo = Mo_cover.of_single f in
  let two_level_area = (Mcx_crossbar.Cost.two_level mo).Mcx_crossbar.Cost.area in
  let mapped = Mcx_netlist.Tech_map.map_cover f in
  let multi_level_area = Mcx_crossbar.Cost.multi_level_area mapped in
  {
    n_products = Cover.size f;
    two_level_area;
    multi_level_area;
    gates = Mcx_netlist.Network.gate_count mapped.Mcx_netlist.Tech_map.network;
  }

let run_panel ?pool ?(samples = 200) ~seed ~n_inputs () =
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let key = Prng.Key.(int (string (root seed) "fig6") n_inputs) in
  let raw =
    Array.to_list
      (Pool.map pool samples (fun i -> one_sample (Prng.derive key i) ~n_inputs))
  in
  let sorted =
    List.stable_sort (fun a b -> Int.compare a.n_products b.n_products) raw
  in
  let wins = List.filter (fun s -> s.multi_level_area < s.two_level_area) raw in
  let success_rate =
    100. *. float_of_int (List.length wins) /. float_of_int (max 1 (List.length raw))
  in
  { n_inputs; samples = sorted; success_rate }

let run ?pool ?(samples = 200) ?(input_sizes = [ 8; 9; 10; 15 ]) ~seed () =
  Telemetry.span "experiment.fig6" @@ fun () ->
  List.map (fun n_inputs -> run_panel ?pool ~samples ~seed ~n_inputs ()) input_sizes

let median_of f panel =
  Stats.median (List.map (fun s -> float_of_int (f s)) panel.samples)

let summary_table panels =
  let table =
    Texttable.create
      [
        "inputs"; "samples"; "success % (paper)"; "success % (ours)"; "median 2-level";
        "median multi-level";
      ]
  in
  List.iter
    (fun panel ->
      Texttable.add_row table
        [
          string_of_int panel.n_inputs;
          string_of_int (List.length panel.samples);
          (match paper_success_rate panel.n_inputs with
          | Some r -> Printf.sprintf "%.0f" r
          | None -> "-");
          Printf.sprintf "%.0f" panel.success_rate;
          Printf.sprintf "%.0f" (median_of (fun s -> s.two_level_area) panel);
          Printf.sprintf "%.0f" (median_of (fun s -> s.multi_level_area) panel);
        ])
    panels;
  table

let series_csv panel =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "sample,products,two_level_area,multi_level_area,gates\n";
  List.iteri
    (fun i s ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%d,%d,%d\n" i s.n_products s.two_level_area
           s.multi_level_area s.gates))
    panel.samples;
  Buffer.contents buf
