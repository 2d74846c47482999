open Mcx_util
open Mcx_logic
open Mcx_crossbar
open Mcx_mapping
open Mcx_benchmarks

type row = {
  name : string;
  inputs : int;
  outputs : int;
  products : int;
  area : int;
  inclusion_ratio : float;
  dual_used : bool;
  hba_psucc : float;
  hba_mean_seconds : float;
  ea_psucc : float;
  ea_mean_seconds : float;
  hba_all_valid : bool;
  ea_all_valid : bool;
  paper : Suite.paper_data;
}

(* §IV.B step 1: "area cost of the logic function and its negation is
   calculated. Smaller case is chosen for implementation." *)
let implementation_cover bench =
  let direct = Suite.cover bench in
  let dual = Suite.negated_cover bench in
  let area c = (Cost.two_level c).Cost.area in
  if area dual < area direct then (dual, true) else (direct, false)

(* Everything one trial contributes to the aggregate row; folded strictly
   in trial order so the float sums stay deterministic for a given run. *)
type trial = {
  hba_hit : bool;
  hba_valid : bool;
  hba_dt : float;
  ea_hit : bool;
  ea_valid : bool;
  ea_dt : float;
}

let run_row ?pool ?(samples = 200) ?(defect_rate = 0.10) ~seed bench =
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let cover, dual_used = implementation_cover bench in
  let fm = Function_matrix.build cover in
  let report = Cost.two_level cover in
  let key =
    Prng.Key.(
      float (string (string (root seed) "table2") bench.Suite.name) defect_rate)
  in
  let rows = report.Cost.rows and cols = report.Cost.cols in
  let trial i =
    let prng = Prng.derive key i in
    let defects =
      Defect_map.random prng ~rows ~cols ~open_rate:defect_rate ~closed_rate:0.
    in
    let cm = Matching.cm_of_defects defects in
    let hba_result, hba_dt = Timing.time (fun () -> Hybrid.map fm cm) in
    let ea_result, ea_dt = Timing.time (fun () -> Exact.map fm cm) in
    let outcome = function
      | Some assignment ->
        (true, Matching.check_assignment ~fm:fm.Function_matrix.matrix ~cm assignment)
      | None -> (false, true)
    in
    let hba_hit, hba_valid = outcome hba_result in
    let ea_hit, ea_valid = outcome ea_result in
    { hba_hit; hba_valid; hba_dt; ea_hit; ea_valid; ea_dt }
  in
  let hba_hits, ea_hits, hba_all_valid, ea_all_valid, hba_seconds, ea_seconds =
    Array.fold_left
      (fun (hba, ea, hba_ok, ea_ok, hba_s, ea_s) t ->
        ( (if t.hba_hit then hba + 1 else hba),
          (if t.ea_hit then ea + 1 else ea),
          hba_ok && t.hba_valid,
          ea_ok && t.ea_valid,
          hba_s +. t.hba_dt,
          ea_s +. t.ea_dt ))
      (0, 0, true, true, 0., 0.)
      (Pool.map pool samples trial)
  in
  let pct hits = 100. *. float_of_int hits /. float_of_int (max 1 samples) in
  let mean seconds = if samples = 0 then 0. else seconds /. float_of_int samples in
  {
    name = bench.Suite.name;
    inputs = Mo_cover.n_inputs cover;
    outputs = Mo_cover.n_outputs cover;
    products = Mo_cover.product_count cover;
    area = report.Cost.area;
    inclusion_ratio = report.Cost.inclusion_ratio;
    dual_used;
    hba_psucc = pct hba_hits;
    hba_mean_seconds = mean hba_seconds;
    ea_psucc = pct ea_hits;
    ea_mean_seconds = mean ea_seconds;
    hba_all_valid;
    ea_all_valid;
    paper = bench.Suite.paper;
  }

let run ?pool ?samples ?defect_rate ?benchmarks ~seed () =
  Telemetry.span "experiment.table2" @@ fun () ->
  let selected =
    match benchmarks with
    | None -> Suite.table2
    | Some names -> List.map Suite.find names
  in
  List.map (fun b -> run_row ?pool ?samples ?defect_rate ~seed b) selected

let opt_pct = function Some v -> Printf.sprintf "%.0f" v | None -> "-"

let to_table rows =
  let table =
    Texttable.create
      [
        "name"; "I"; "O"; "P"; "area"; "IR%"; "HBA Psucc"; "(paper)"; "HBA time";
        "EA Psucc"; "(paper)"; "EA time"; "speedup";
      ]
  in
  List.iter
    (fun r ->
      Texttable.add_row table
        [
          (r.name ^ if r.dual_used then "*" else "");
          string_of_int r.inputs;
          string_of_int r.outputs;
          string_of_int r.products;
          string_of_int r.area;
          Printf.sprintf "%.0f" r.inclusion_ratio;
          Printf.sprintf "%.0f" r.hba_psucc;
          opt_pct r.paper.Suite.psucc_hba;
          Printf.sprintf "%.5fs" r.hba_mean_seconds;
          Printf.sprintf "%.0f" r.ea_psucc;
          opt_pct r.paper.Suite.psucc_ea;
          Printf.sprintf "%.5fs" r.ea_mean_seconds;
          (if r.hba_mean_seconds > 0. then
             Printf.sprintf "%.0fx" (r.ea_mean_seconds /. r.hba_mean_seconds)
           else "-");
        ])
    rows;
  table

let to_csv rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "name,inputs,outputs,products,area,ir,dual,hba_psucc,hba_seconds,ea_psucc,ea_seconds\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%d,%d,%d,%.2f,%b,%.1f,%.6f,%.1f,%.6f\n" r.name r.inputs
           r.outputs r.products r.area r.inclusion_ratio r.dual_used r.hba_psucc
           r.hba_mean_seconds r.ea_psucc r.ea_mean_seconds))
    rows;
  Buffer.contents buf
