open Mcx_util
open Mcx_crossbar
open Mcx_mapping
open Mcx_benchmarks

type point = {
  defect_rate : float;
  hba_psucc : float;
  ea_psucc : float;
}

type sweep = { benchmark : string; samples : int; points : point list }

let run ?pool ?(samples = 100)
    ?(defect_rates = [ 0.02; 0.05; 0.08; 0.10; 0.12; 0.15; 0.20 ]) ~seed ~benchmark () =
  Telemetry.span "experiment.ratesweep" @@ fun () ->
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let bench = Suite.find benchmark in
  let cover = Suite.cover bench in
  let fm = Function_matrix.build cover in
  let geometry = fm.Function_matrix.geometry in
  let rows = Geometry.rows geometry and cols = Geometry.cols geometry in
  let key = Prng.Key.(string (string (root seed) "ratesweep") benchmark) in
  let point defect_rate =
    let point_key = Prng.Key.float key defect_rate in
    let trial i =
      let prng = Prng.derive point_key i in
      let defects =
        Defect_map.random prng ~rows ~cols ~open_rate:defect_rate ~closed_rate:0.
      in
      let cm = Matching.cm_of_defects defects in
      (Hybrid.map fm cm <> None, Exact.feasible fm cm)
    in
    let hba, ea =
      Array.fold_left
        (fun (h, e) (hba, ea) -> ((if hba then h + 1 else h), if ea then e + 1 else e))
        (0, 0)
        (Pool.map pool samples trial)
    in
    let pct c = 100. *. float_of_int c /. float_of_int (max 1 samples) in
    { defect_rate; hba_psucc = pct hba; ea_psucc = pct ea }
  in
  { benchmark; samples; points = List.map point defect_rates }

let to_table sweep =
  let table =
    Texttable.create [ "defect rate %"; "HBA Psucc"; "EA Psucc" ]
  in
  List.iter
    (fun p ->
      Texttable.add_row table
        [
          Printf.sprintf "%.0f" (100. *. p.defect_rate);
          Printf.sprintf "%.0f" p.hba_psucc;
          Printf.sprintf "%.0f" p.ea_psucc;
        ])
    sweep.points;
  table
