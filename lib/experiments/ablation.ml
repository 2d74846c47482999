open Mcx_util
open Mcx_logic
open Mcx_crossbar
open Mcx_mapping
open Mcx_benchmarks

(* --- factoring ablation ------------------------------------------- *)

type factoring_row = {
  n_inputs : int;
  flat_median_area : float;
  quick_median_area : float;
  kernel_median_area : float;
  flat_win_rate : float;
  quick_win_rate : float;
  kernel_win_rate : float;
}

let factoring ?pool ?(samples = 60) ?(input_sizes = [ 8; 10 ]) ~seed () =
  Telemetry.span "experiment.ablation_factoring" @@ fun () ->
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let row n_inputs =
    let key = Prng.Key.(int (string (root seed) "ablation-factoring") n_inputs) in
    let trial i =
      let prng = Prng.derive key i in
      let params = Random_sop.paper_params prng ~n_inputs in
      let f = Random_sop.random_cover prng params in
      let two = (Cost.two_level (Mo_cover.of_single f)).Cost.area in
      let area strategy =
        Cost.multi_level_area (Mcx_netlist.Tech_map.map_cover ~strategy f)
      in
      ( two,
        area Mcx_netlist.Tech_map.Flat,
        area Mcx_netlist.Tech_map.Quick,
        area Mcx_netlist.Tech_map.Kernel )
    in
    let results = Array.to_list (Pool.map pool samples trial) in
    let median f =
      match results with
      | [] -> Float.nan
      | l -> Stats.median (List.map (fun r -> float_of_int (f r)) l)
    in
    let win f =
      match results with
      | [] -> Float.nan
      | l -> Stats.success_rate (List.map (fun ((two, _, _, _) as r) -> f r < two) l)
    in
    {
      n_inputs;
      flat_median_area = median (fun (_, a, _, _) -> a);
      quick_median_area = median (fun (_, _, a, _) -> a);
      kernel_median_area = median (fun (_, _, _, a) -> a);
      flat_win_rate = win (fun (_, a, _, _) -> a);
      quick_win_rate = win (fun (_, _, a, _) -> a);
      kernel_win_rate = win (fun (_, _, _, a) -> a);
    }
  in
  List.map row input_sizes

let factoring_table rows =
  let table =
    Texttable.create
      [
        "inputs"; "flat area (med)"; "quick area (med)"; "kernel area (med)";
        "flat win %"; "quick win %"; "kernel win %";
      ]
  in
  List.iter
    (fun r ->
      Texttable.add_row table
        [
          string_of_int r.n_inputs;
          Printf.sprintf "%.0f" r.flat_median_area;
          Printf.sprintf "%.0f" r.quick_median_area;
          Printf.sprintf "%.0f" r.kernel_median_area;
          Printf.sprintf "%.0f" r.flat_win_rate;
          Printf.sprintf "%.0f" r.quick_win_rate;
          Printf.sprintf "%.0f" r.kernel_win_rate;
        ])
    rows;
  table

(* --- hybrid ordering ablation -------------------------------------- *)

type ordering_row = {
  benchmark : string;
  top_down_psucc : float;
  hardest_first_psucc : float;
  exact_psucc : float;
}

let ordering ?pool ?(samples = 100) ?(defect_rate = 0.10)
    ?(benchmarks = [ "rd53"; "rd73"; "rd84"; "sao2"; "exp5" ]) ~seed () =
  Telemetry.span "experiment.ablation_ordering" @@ fun () ->
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let row benchmark =
    let bench = Suite.find benchmark in
    let cover = Suite.cover bench in
    let fm = Function_matrix.build cover in
    let geometry = fm.Function_matrix.geometry in
    let rows = Geometry.rows geometry and cols = Geometry.cols geometry in
    let key =
      Prng.Key.(
        float (string (string (root seed) "ablation-ordering") benchmark) defect_rate)
    in
    let trial i =
      let prng = Prng.derive key i in
      let defects =
        Defect_map.random prng ~rows ~cols ~open_rate:defect_rate ~closed_rate:0.
      in
      let cm = Matching.cm_of_defects defects in
      ( Hybrid.map ~order:Hybrid.Top_down fm cm <> None,
        Hybrid.map ~order:Hybrid.Hardest_first fm cm <> None,
        Exact.feasible fm cm )
    in
    let top, hardest, exact =
      Array.fold_left
        (fun (t, h, e) (top, hardest, exact) ->
          ( (if top then t + 1 else t),
            (if hardest then h + 1 else h),
            if exact then e + 1 else e ))
        (0, 0, 0)
        (Pool.map pool samples trial)
    in
    let pct c = 100. *. float_of_int c /. float_of_int (max 1 samples) in
    {
      benchmark;
      top_down_psucc = pct top;
      hardest_first_psucc = pct hardest;
      exact_psucc = pct exact;
    }
  in
  List.map row benchmarks

type fanin_row = {
  benchmark : string;
  fanin_limit : int;
  gates : int;
  area : int;
  steps : int;
}

let fanin ?(fanin_limits = [ 2; 4; 0 ]) ?(benchmarks = [ "rd53"; "sqrt8"; "t481" ]) () =
  Telemetry.span "experiment.ablation_fanin" @@ fun () ->
  let cells =
    Array.of_list
      (List.concat_map
         (fun benchmark -> List.map (fun limit -> (benchmark, limit)) fanin_limits)
         benchmarks)
  in
  Array.to_list
    (Pool.map (Pool.default ()) (Array.length cells) (fun i ->
         let benchmark, fanin_limit = cells.(i) in
         let cover = Suite.cover (Suite.find benchmark) in
         let mapped =
           if fanin_limit = 0 then Mcx_netlist.Tech_map.map_mo cover
           else Mcx_netlist.Tech_map.map_mo ~fanin_limit:(max 2 fanin_limit) cover
         in
         {
           benchmark;
           fanin_limit;
           gates = Mcx_netlist.Network.gate_count mapped.Mcx_netlist.Tech_map.network;
           area = Cost.multi_level_area mapped;
           steps = Cost.multi_level_steps mapped;
         }))

let fanin_table rows =
  let table =
    Texttable.create [ "benchmark"; "fan-in limit"; "NAND gates"; "multi-level area"; "steps" ]
  in
  List.iter
    (fun r ->
      Texttable.add_row table
        [
          r.benchmark;
          (if r.fanin_limit = 0 then "n (paper)" else string_of_int r.fanin_limit);
          string_of_int r.gates;
          string_of_int r.area;
          string_of_int r.steps;
        ])
    rows;
  table

let ordering_table rows =
  let table =
    Texttable.create
      [ "benchmark"; "HBA top-down"; "HBA hardest-first"; "EA (upper bound)" ]
  in
  List.iter
    (fun (r : ordering_row) ->
      Texttable.add_row table
        [
          r.benchmark;
          Printf.sprintf "%.0f" r.top_down_psucc;
          Printf.sprintf "%.0f" r.hardest_first_psucc;
          Printf.sprintf "%.0f" r.exact_psucc;
        ])
    rows;
  table
