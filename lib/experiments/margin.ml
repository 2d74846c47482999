open Mcx_crossbar
open Mcx_benchmarks

type width_point = { width : int; margin_volts : float }

type benchmark_row = {
  name : string;
  columns : int;
  margin_volts : float;
  reliable : bool;
}

type result = {
  curve : width_point list;
  benchmarks : benchmark_row list;
  max_reliable_width : int;
}

let run ?(widths = [ 1; 8; 16; 32; 64; 128; 192; 256; 320 ]) ?benchmarks () =
  Mcx_util.Telemetry.span "experiment.margin" @@ fun () ->
  let selected =
    match benchmarks with
    | Some names -> List.map Suite.find names
    | None -> Suite.table2
  in
  let limit = Analog.max_reliable_width () in
  let curve =
    List.map (fun width -> { width; margin_volts = Analog.sense_margin ~width () }) widths
  in
  (* The analog curve is trivial; the per-benchmark rows need a cover
     build each, so those are spread over the pool. *)
  let benches = Array.of_list selected in
  let rows =
    Array.to_list
      (Mcx_util.Pool.map (Mcx_util.Pool.default ()) (Array.length benches) (fun i ->
           let cover = Suite.cover benches.(i) in
           let columns = (Cost.two_level cover).Cost.cols in
           {
             name = benches.(i).Suite.name;
             columns;
             margin_volts = Analog.sense_margin ~width:columns ();
             reliable = columns <= limit;
           }))
  in
  { curve; benchmarks = rows; max_reliable_width = limit }

let to_tables result =
  let curve = Mcx_util.Texttable.create [ "line width"; "sense margin (V)" ] in
  List.iter
    (fun p ->
      Mcx_util.Texttable.add_row curve
        [ string_of_int p.width; Printf.sprintf "%.3f" p.margin_volts ])
    result.curve;
  let benchmarks =
    Mcx_util.Texttable.create [ "benchmark"; "columns"; "margin (V)"; "electrically ok" ]
  in
  List.iter
    (fun r ->
      Mcx_util.Texttable.add_row benchmarks
        [
          r.name;
          string_of_int r.columns;
          Printf.sprintf "%.3f" r.margin_volts;
          (if r.reliable then "yes" else "NO");
        ])
    result.benchmarks;
  (curve, benchmarks)
