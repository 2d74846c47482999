(* Loaders and renderers for memx report. Pure: the driver owns stdout
   and the exit status. *)

module Json = Mcx_util.Json_out
module Texttable = Mcx_util.Texttable

type stage_stat = {
  stage : string;
  count : int;
  total_ns : int64;
  mean_ns : int64;
  p50_ns : int64;
  p95_ns : int64;
  max_ns : int64;
}

type summary = {
  source : string;
  records : int;
  by_status : (string * int) list;
  by_cache : (string * int) list;
  bytes_total : int;
  has_times : bool;
  stages : stage_stat list;
}

let tally key_of records =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let k = key_of r in
      Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0))
    records;
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let stage_stat_of stage records =
  let durations = List.map (fun r -> Access_log.stage_ns r stage) records in
  let count = List.length durations in
  let total = List.fold_left Int64.add 0L durations in
  let percentile p =
    match durations with
    | [] -> 0L
    | _ -> Int64.of_float (Mcx_util.Stats.percentile (List.map Int64.to_float durations) p)
  in
  {
    stage;
    count;
    total_ns = total;
    mean_ns = (if count = 0 then 0L else Int64.div total (Int64.of_int count));
    p50_ns = percentile 50.;
    p95_ns = percentile 95.;
    max_ns = List.fold_left Int64.max 0L durations;
  }

let summarize ~source records ~has_times =
  {
    source;
    records = List.length records;
    by_status = tally (fun r -> r.Access_log.status) records;
    by_cache =
      tally (fun r -> Access_log.cache_outcome_to_string r.Access_log.cache) records;
    bytes_total = List.fold_left (fun acc r -> acc + r.Access_log.bytes) 0 records;
    has_times;
    stages = List.map (fun stage -> stage_stat_of stage records) Access_log.stage_names;
  }

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec loop acc =
        match input_line ic with
        | line -> loop (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      loop [])

let load_access path =
  match read_lines path with
  | exception Sys_error msg -> Error msg
  | lines ->
    let rec parse lineno acc timed = function
      | [] -> Ok (List.rev acc, timed)
      | line :: rest when String.trim line = "" -> parse (lineno + 1) acc timed rest
      | line :: rest -> (
        match Json.of_string line with
        | Error e -> Error (Printf.sprintf "%s:%d: %s" path lineno e)
        | Ok json -> (
          match Access_log.of_json json with
          | Error e -> Error (Printf.sprintf "%s:%d: %s" path lineno e)
          | Ok r -> parse (lineno + 1) (r :: acc) (timed && Access_log.has_times json) rest))
    in
    Result.map
      (fun (records, timed) ->
        summarize ~source:path records ~has_times:(timed && records <> []))
      (parse 1 [] true lines)

let us ns = Printf.sprintf "%.1f" (Int64.to_float ns /. 1e3)
let ms ns = Printf.sprintf "%.2f" (Int64.to_float ns /. 1e6)

let access_tables summary =
  let overview =
    Texttable.create [ "access log"; "count" ]
  in
  Texttable.add_row overview [ "requests"; string_of_int summary.records ];
  Texttable.add_row overview [ "response bytes"; string_of_int summary.bytes_total ];
  Texttable.add_separator overview;
  List.iter
    (fun (status, n) ->
      Texttable.add_row overview [ "status " ^ status; string_of_int n ])
    summary.by_status;
  Texttable.add_separator overview;
  List.iter
    (fun (outcome, n) ->
      Texttable.add_row overview [ "cache " ^ outcome; string_of_int n ])
    summary.by_cache;
  if not summary.has_times then [ overview ]
  else begin
    let stages =
      Texttable.create
        [ "stage"; "count"; "total ms"; "mean us"; "p50 us"; "p95 us"; "max us" ]
    in
    List.iter
      (fun s ->
        Texttable.add_row stages
          [
            s.stage;
            string_of_int s.count;
            ms s.total_ns;
            us s.mean_ns;
            us s.p50_ns;
            us s.p95_ns;
            us s.max_ns;
          ])
      summary.stages;
    [ overview; stages ]
  end

let load_json path =
  match read_lines path with
  | exception Sys_error msg -> Error msg
  | lines -> Json.of_string (String.concat "\n" lines)

(* --- mcx-trace/1 ----------------------------------------------------- *)

let trace_table json =
  match Option.bind (Json.member "traceEvents" json) Json.to_list_opt with
  | None -> Error "not a Chrome trace (no traceEvents list)"
  | Some events ->
    (* name -> (events, total us, max us); spans are ph="X" complete
       events with microsecond [dur]. *)
    let tbl : (string, int ref * float ref * float ref) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun ev ->
        match
          ( Option.bind (Json.member "ph" ev) Json.to_string_opt,
            Option.bind (Json.member "name" ev) Json.to_string_opt,
            Option.bind (Json.member "dur" ev) Json.to_float_opt )
        with
        | Some "X", Some name, Some dur_us ->
          let count, total, max_us =
            match Hashtbl.find_opt tbl name with
            | Some cell -> cell
            | None ->
              let cell = (ref 0, ref 0., ref 0.) in
              Hashtbl.add tbl name cell;
              cell
          in
          incr count;
          total := !total +. dur_us;
          if dur_us > !max_us then max_us := dur_us
        | _ -> ())
      events;
    let rows =
      Hashtbl.fold (fun name (c, t, m) acc -> (name, !c, !t, !m) :: acc) tbl []
      |> List.sort (fun (a, _, _, _) (b, _, _, _) -> String.compare a b)
    in
    let table = Texttable.create [ "span"; "events"; "total ms"; "mean us"; "max us" ] in
    List.iter
      (fun (name, count, total_us, max_us) ->
        Texttable.add_row table
          [
            name;
            string_of_int count;
            Printf.sprintf "%.2f" (total_us /. 1e3);
            Printf.sprintf "%.1f" (total_us /. float_of_int count);
            Printf.sprintf "%.1f" max_us;
          ])
      rows;
    Ok table

let load_trace path = Result.bind (load_json path) trace_table
