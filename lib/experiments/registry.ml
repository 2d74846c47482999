open Mcx_util
open Mcx_logic
open Mcx_crossbar
open Mcx_mapping

type output = { text : string; csvs : (string * string) list }

let rule = "=============================================================="

let heading buf title = Printf.bprintf buf "\n%s\n%s\n%s\n" rule title rule
let table buf t = Buffer.add_string buf (Texttable.render t)

(* ------------------------------------------------------------------ *)
(* FIG3 / FIG5: the running example                                    *)
(* ------------------------------------------------------------------ *)

let paper_example_cover =
  Cover.of_strings [ "1-------"; "-1------"; "--1-----"; "---1----"; "----1111" ]

let fig3 buf =
  heading buf "FIG 3 - two-level mapping of f = x1+x2+x3+x4+x5x6x7x8";
  let mo = Mo_cover.of_single paper_example_cover in
  let report = Cost.two_level ~include_il_row:true mo in
  Printf.bprintf buf "crossbar: %d x %d   (paper: 7 x 18)\n" report.Cost.rows
    report.Cost.cols;
  Printf.bprintf buf "area cost: %d        (paper: 126)\n" report.Cost.area;
  Printf.bprintf buf "switches:  %d         (paper: 31)\n" report.Cost.switches;
  Printf.bprintf buf "IR: %.1f%%            (paper: ~25%%)\n" report.Cost.inclusion_ratio;
  let layout = Layout.of_cover ~include_il_row:true mo in
  Printf.bprintf buf "exhaustive simulation against the SOP: %s\n"
    (if Sim.agrees_with_reference layout then "MATCH (256/256 inputs)" else "MISMATCH");
  Printf.bprintf buf "\n%s" (Render.two_level layout);
  []

let fig5 buf =
  heading buf "FIG 5 - multi-level mapping of the same function";
  let mapped = Mcx_netlist.Tech_map.map_cover paper_example_cover in
  let report = Cost.multi_level mapped in
  Printf.bprintf buf "crossbar: %d x %d    (paper: 3 x 19)\n" report.Cost.rows
    report.Cost.cols;
  Printf.bprintf buf "area cost: %d        (paper prints 59; 3 x 19 = 57)\n"
    report.Cost.area;
  let network = mapped.Mcx_netlist.Tech_map.network in
  Printf.bprintf buf "NAND gates: %d, inner connections: %d\n"
    (Mcx_netlist.Network.gate_count network)
    (Mcx_netlist.Network.inner_connection_count network);
  let ml = Multilevel.place mapped in
  Printf.bprintf buf "exhaustive simulation against the SOP: %s\n"
    (if Multilevel.agrees_with_reference ml (Mo_cover.of_single paper_example_cover) then
       "MATCH (256/256 inputs)"
     else "MISMATCH");
  Printf.bprintf buf "\n%s" (Render.multi_level ml);
  []

(* ------------------------------------------------------------------ *)
(* FIG6 / TABLE 1                                                      *)
(* ------------------------------------------------------------------ *)

let fig6 ?pool buf ~samples ~seed =
  let samples = Option.value samples ~default:200 in
  heading buf
    (Printf.sprintf
       "FIG 6 - two-level vs multi-level area, %d random functions per input size" samples);
  let panels = Fig6.run ?pool ~samples ~seed () in
  table buf (Fig6.summary_table panels);
  List.map
    (fun panel ->
      let path = Printf.sprintf "fig6_inputs%02d.csv" panel.Fig6.n_inputs in
      Printf.bprintf buf "series written to %s\n" path;
      (path, Fig6.series_csv panel))
    panels

let table1 buf =
  heading buf "TABLE I - benchmark area, two-level vs multi-level, original vs negation";
  table buf (Table1.to_table (Table1.run ()));
  []

(* ------------------------------------------------------------------ *)
(* FIG 7 / FIG 8: the mapping walk-through                             *)
(* ------------------------------------------------------------------ *)

let fig7_cover =
  Mo_cover.create ~share:false ~n_inputs:3 ~n_outputs:2
    [
      { Mo_cover.cube = Cube.of_string "11-"; outputs = [| true; false |] };
      { Mo_cover.cube = Cube.of_string "-11"; outputs = [| true; false |] };
      { Mo_cover.cube = Cube.of_string "1-1"; outputs = [| false; true |] };
      { Mo_cover.cube = Cube.of_string "-11"; outputs = [| false; true |] };
    ]

let fig7 buf =
  heading buf
    "FIG 7/8 - defect-aware mapping walk-through (O1 = x1x2 + x2x3, O2 = x1x3 + x2x3)";
  let fm = Function_matrix.build fig7_cover in
  let matrix = fm.Function_matrix.matrix in
  Printf.bprintf buf "Function matrix (FM), %d x %d:\n%s\n\n" (Bmatrix.rows matrix)
    (Bmatrix.cols matrix) (Bmatrix.to_string matrix);
  let defects = Defect_map.create ~rows:6 ~cols:10 in
  List.iter
    (fun (r, c) -> Defect_map.set defects r c Junction.Stuck_open)
    [ (0, 0); (2, 7); (5, 3) ];
  Printf.bprintf buf "Defect map (o = stuck-open):\n%s\n\n"
    (Fmt.str "%a" Defect_map.pp defects);
  let cm = Matching.cm_of_defects defects in
  Printf.bprintf buf "Crossbar matrix (CM):\n%s\n\n" (Bmatrix.to_string cm);
  Printf.bprintf buf "naive (identity) mapping valid: %b\n"
    (Matching.check_assignment ~fm:matrix ~cm (Array.init 6 Fun.id));
  (match Hybrid.map fm cm with
  | Some assignment ->
    Printf.bprintf buf "hybrid mapping found: FM row -> crossbar row: %s\n"
      (String.concat " "
         (List.mapi (fun i t -> Printf.sprintf "%d->H%d" i t) (Array.to_list assignment)));
    let layout = Layout.place ~row_assignment:assignment fm in
    Printf.bprintf buf "simulation under defects: %s\n"
      (if Sim.agrees_with_reference ~defects layout then "MATCH (all 8 inputs)"
       else "MISMATCH")
  | None -> Printf.bprintf buf "hybrid mapping FAILED\n");
  Printf.bprintf buf "exact algorithm agrees a mapping exists: %b\n" (Exact.feasible fm cm);
  []

(* ------------------------------------------------------------------ *)
(* TABLE 2                                                             *)
(* ------------------------------------------------------------------ *)

let table2 ?pool buf ~samples ~seed =
  let samples = Option.value samples ~default:200 in
  heading buf
    (Printf.sprintf
       "TABLE II - HBA vs EA success rate & runtime, optimum crossbars, 10%% stuck-open, %d samples"
       samples);
  let rows = Table2.run ?pool ~samples ~seed () in
  table buf (Table2.to_table rows);
  Printf.bprintf buf "(* = implemented with its dual, as the paper's bold entries)\n";
  Printf.bprintf buf "csv written to table2.csv\n";
  [ ("table2.csv", Table2.to_csv rows) ]

(* ------------------------------------------------------------------ *)
(* Extensions                                                          *)
(* ------------------------------------------------------------------ *)

(* Bigger arrays collect stuck-closed defects in proportion to their
   area, so the survivable closed rate shrinks with the circuit: bw's
   3300-junction optimum array is hopeless at 1% closed. *)
let yield_configs =
  [
    ("rd53", 0.05, 0.01, [ 0; 1; 2; 3; 4 ]);
    ("misex1", 0.05, 0.01, [ 0; 1; 2; 3; 4 ]);
    ("bw", 0.02, 0.002, [ 0; 2; 4; 6; 8 ]);
  ]

let yield ?pool buf ~samples ~seed =
  let samples = Option.value samples ~default:100 in
  heading buf "EXT-YIELD - redundancy vs mapping yield (stuck-open + stuck-closed defects)";
  List.iter
    (fun (benchmark, open_rate, closed_rate, spare_levels) ->
      let sweep =
        Yield.run ?pool ~samples ~seed ~benchmark ~open_rate ~closed_rate ~spare_levels ()
      in
      Printf.bprintf buf "\n%s (open %.1f%%, closed %.2f%%):\n" benchmark
        (100. *. open_rate) (100. *. closed_rate);
      table buf (Yield.to_table sweep))
    yield_configs;
  []

let mldefect ?pool buf ~samples ~seed =
  let samples = Option.value samples ~default:100 in
  heading buf "EXT-MLDEF - defect-tolerant mapping of multi-level designs (stuck-open)";
  List.iter
    (fun (benchmark, spare_rows) ->
      let result = Mldefect.run ?pool ~samples ~spare_rows ~seed ~benchmark () in
      Printf.bprintf buf "\n%s (+%d spare rows): %d NAND gates, multi-level area %d\n"
        benchmark spare_rows result.Mldefect.gates result.Mldefect.area;
      table buf (Mldefect.to_table result))
    [ ("misex1", 0); ("rd53", 0); ("squar5", 0); ("misex1", 4); ("rd53", 4) ];
  []

let ratesweep ?pool buf ~samples ~seed =
  let samples = Option.value samples ~default:100 in
  heading buf "EXT-RATE - Psucc vs stuck-open rate: hybrid / exact / annealing baseline";
  List.iter
    (fun benchmark ->
      let sweep = Ratesweep.run ?pool ~samples ~seed ~benchmark () in
      Printf.bprintf buf "\n%s:\n" benchmark;
      table buf (Ratesweep.to_table sweep))
    [ "rd53"; "rd73" ];
  []

let ablation ?pool buf ~samples ~seed =
  let samples = Option.value samples ~default:100 in
  heading buf
    "ABLATION 1 - factoring strategy (flat / quick / kernel) on the Fig. 6 workload";
  table buf
    (Ablation.factoring_table
       (Ablation.factoring ?pool ~samples ~input_sizes:[ 8; 10 ] ~seed ()));
  heading buf "ABLATION 2 - hybrid greedy order (top-down vs hardest-first) at 10% defects";
  table buf (Ablation.ordering_table (Ablation.ordering ?pool ~samples ~seed ()));
  heading buf "ABLATION 3 - NAND fan-in limit (the paper allows 2..n)";
  table buf (Ablation.fanin_table (Ablation.fanin ()));
  []

let tradeoff buf =
  heading buf "EXT-TRADE - area / computation steps / memristor writes per evaluation";
  table buf (Tradeoff.to_table (Tradeoff.run ()));
  []

let aging ?pool buf ~samples ~seed =
  let samples = Option.value samples ~default:60 in
  heading buf "EXT-AGING - incremental repair vs remap as stuck-open faults accumulate";
  table buf
    (Aging.to_table
       (List.map
          (fun benchmark -> Aging.run ?pool ~samples ~seed ~benchmark ())
          [ "rd53"; "misex1"; "sqrt8" ]));
  []

let transient ?pool buf ~samples ~seed =
  let evaluations = Option.value samples ~default:300 in
  heading buf "EXT-TRANSIENT - write-upset error rate, two-level vs multi-level";
  List.iter
    (fun benchmark ->
      let r = Transient.run ?pool ~evaluations ~seed ~benchmark () in
      Printf.bprintf buf "\n%s (writes per evaluation: %d two-level, %d multi-level):\n"
        benchmark r.Transient.two_level_writes r.Transient.multi_level_writes;
      table buf (Transient.to_table r))
    [ "rd53"; "misex1" ];
  []

let margin buf =
  heading buf
    "EXT-MARGIN - electrical sense margin vs line width (resistive-divider model)";
  let result = Margin.run () in
  let curve, benchmarks = Margin.to_tables result in
  Printf.bprintf buf "max electrically reliable width: %d junctions\n\n"
    result.Margin.max_reliable_width;
  table buf curve;
  Buffer.add_char buf '\n';
  table buf benchmarks;
  []

(* ------------------------------------------------------------------ *)

(* Each entry appends its text to the buffer and returns its CSVs. The
   deterministic walk-throughs and tables take no pool, samples or seed. *)
let fixed run ?pool:_ buf ~samples:_ ~seed:_ = run buf

let entries =
  [
    ("fig3", fixed fig3);
    ("fig5", fixed fig5);
    ("fig6", fig6);
    ("table1", fixed table1);
    ("fig7", fixed fig7);
    ("table2", table2);
    ("yield", yield);
    ("mldefect", mldefect);
    ("ratesweep", ratesweep);
    ("ablation", ablation);
    ("tradeoff", fixed tradeoff);
    ("aging", aging);
    ("transient", transient);
    ("margin", fixed margin);
  ]

let names = List.map fst entries

let run ?pool ?samples ~seed name =
  match List.assoc_opt name entries with
  | None -> invalid_arg ("Registry.run: unknown experiment " ^ name)
  | Some entry ->
    let buf = Buffer.create 4096 in
    let csvs = entry ?pool buf ~samples ~seed in
    { text = Buffer.contents buf; csvs }
