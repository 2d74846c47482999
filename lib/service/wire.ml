module Json = Mcx_util.Json_out
module Mapper = Mcx_mapping.Mapper

let request_schema = "mcx-request/1"
let response_schema = "mcx-response/1"

type defects_spec =
  | Pristine
  | Explicit of {
      rows : int;
      cols : int;
      stuck_open : (int * int) list;
      stuck_closed : (int * int) list;
    }
  | Seeded of { seed : int; open_rate : float; closed_rate : float }

type config = {
  mapper : Mapper.config;
  verify : bool;
  deadline_ms : int option;
}

let default_config = { mapper = Mapper.default; verify = false; deadline_ms = None }

type request = {
  id : string;
  source : [ `Pla of string | `Benchmark of string ];
  defects : defects_spec;
  config : config;
}

(* --- request parsing ------------------------------------------------- *)

let ( let* ) = Result.bind

let field_opt name conv json =
  match Json.member name json with
  | None -> Ok None
  | Some v -> (
    match conv v with
    | Some x -> Ok (Some x)
    | None -> Error (Printf.sprintf "field %S has the wrong type" name))

let coordinate_list name json =
  let* pairs = field_opt name Json.to_list_opt json in
  match pairs with
  | None -> Ok []
  | Some pairs ->
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        match Json.to_list_opt item with
        | Some [ r; c ] -> (
          match (Json.to_int_opt r, Json.to_int_opt c) with
          | Some r, Some c -> Ok ((r, c) :: acc)
          | _ -> Error (Printf.sprintf "field %S holds a non-integer coordinate" name))
        | Some _ | None ->
          Error (Printf.sprintf "field %S must hold [row,col] pairs" name))
      (Ok []) pairs
    |> Result.map List.rev

(* A defect rate: absent reads 0; anything outside [0, 1] is refused,
   NaN included, which is how [null] reads. *)
let rate name json =
  let* r = field_opt name Json.to_float_opt json in
  match r with
  | None -> Ok 0.
  | Some r when r >= 0. && r <= 1. -> Ok r
  | Some _ -> Error (Printf.sprintf "field %S must be a number between 0 and 1" name)

let parse_defects json =
  match Json.member "defects" json with
  | None -> Ok Pristine
  | Some d -> (
    let* seed = field_opt "seed" Json.to_int_opt d in
    match seed with
    | Some seed ->
      let* open_rate = rate "open_rate" d in
      let* closed_rate = rate "closed_rate" d in
      if open_rate +. closed_rate > 1. then
        Error
          (Printf.sprintf "open_rate %g and closed_rate %g sum above 1" open_rate closed_rate)
      else Ok (Seeded { seed; open_rate; closed_rate })
    | None -> (
      let* rows = field_opt "rows" Json.to_int_opt d in
      let* cols = field_opt "cols" Json.to_int_opt d in
      match (rows, cols) with
      | Some rows, Some cols ->
        let* stuck_open = coordinate_list "open" d in
        let* stuck_closed = coordinate_list "closed" d in
        Ok (Explicit { rows; cols; stuck_open; stuck_closed })
      | _ -> Error "defects must carry either seed/open_rate or rows/cols/open/closed"))

let parse_config json =
  match Json.member "config" json with
  | None -> Ok default_config
  | Some c ->
    let* algorithm = field_opt "algorithm" Json.to_string_opt c in
    let* algorithm =
      match algorithm with
      | None -> Ok Mapper.default.Mapper.algorithm
      | Some name -> (
        match Mapper.algorithm_of_string name with
        | Some a -> Ok a
        | None -> Error (Printf.sprintf "unknown algorithm %S (hybrid|exact)" name))
    in
    let* order = field_opt "order" Json.to_string_opt c in
    let* order =
      match order with
      | None | Some "top_down" -> Ok Mcx_mapping.Hybrid.Top_down
      | Some "hardest_first" -> Ok Mcx_mapping.Hybrid.Hardest_first
      | Some name -> Error (Printf.sprintf "unknown order %S (top_down|hardest_first)" name)
    in
    let* include_il_row = field_opt "include_il_row" Json.to_bool_opt c in
    let* verify = field_opt "verify" Json.to_bool_opt c in
    let* deadline_ms = field_opt "deadline_ms" Json.to_int_opt c in
    let* () =
      match deadline_ms with
      | Some ms when ms < 0 -> Error {|field "deadline_ms" must be a non-negative integer|}
      | Some _ | None -> Ok ()
    in
    Ok
      {
        mapper =
          {
            Mapper.algorithm;
            order;
            include_il_row = Option.value include_il_row ~default:false;
          };
        verify = Option.value verify ~default:false;
        deadline_ms;
      }

let request_of_line ~index line =
  let located msg = Printf.sprintf "request %d: %s" index msg in
  match Json.of_string line with
  | Error msg -> Error (located ("bad JSON: " ^ msg))
  | Ok json -> (
    match
      let* schema = field_opt "schema" Json.to_string_opt json in
      let* () =
        match schema with
        | Some s when s = request_schema -> Ok ()
        | Some s -> Error (Printf.sprintf "unsupported schema %S (want %s)" s request_schema)
        | None -> Error (Printf.sprintf "missing schema field (want %S)" request_schema)
      in
      let* id = field_opt "id" Json.to_string_opt json in
      let id = match id with Some id -> id | None -> Printf.sprintf "#%d" index in
      let* pla = field_opt "pla" Json.to_string_opt json in
      let* benchmark = field_opt "benchmark" Json.to_string_opt json in
      let* source =
        match (pla, benchmark) with
        | Some pla, None -> Ok (`Pla pla)
        | None, Some name -> Ok (`Benchmark name)
        | Some _, Some _ -> Error "give either pla or benchmark, not both"
        | None, None -> Error "missing function: give pla or benchmark"
      in
      let* defects = parse_defects json in
      let* config = parse_config json in
      Ok { id; source; defects; config }
    with
    | Ok r -> Ok r
    | Error msg -> Error (located msg))

(* --- request emission ------------------------------------------------ *)

let request_to_json r =
  let source_field =
    match r.source with
    | `Pla text -> ("pla", Json.Str text)
    | `Benchmark name -> ("benchmark", Json.Str name)
  in
  let coords pairs =
    Json.List (List.map (fun (i, j) -> Json.List [ Json.Int i; Json.Int j ]) pairs)
  in
  let defect_fields =
    match r.defects with
    | Pristine -> []
    | Explicit { rows; cols; stuck_open; stuck_closed } ->
      [
        ( "defects",
          Json.Obj
            [
              ("rows", Json.Int rows);
              ("cols", Json.Int cols);
              ("open", coords stuck_open);
              ("closed", coords stuck_closed);
            ] );
      ]
    | Seeded { seed; open_rate; closed_rate } ->
      [
        ( "defects",
          Json.Obj
            [
              ("seed", Json.Int seed);
              ("open_rate", Json.Float open_rate);
              ("closed_rate", Json.Float closed_rate);
            ] );
      ]
  in
  let order_field =
    match r.config.mapper.Mapper.order with
    | Mcx_mapping.Hybrid.Top_down -> []
    | Mcx_mapping.Hybrid.Hardest_first -> [ ("order", Json.Str "hardest_first") ]
  in
  let config_fields =
    [
      ( "config",
        Json.Obj
          ([
             ( "algorithm",
               Json.Str (Mapper.algorithm_to_string r.config.mapper.Mapper.algorithm) );
           ]
          @ order_field
          @ [ ("include_il_row", Json.Bool r.config.mapper.Mapper.include_il_row) ]
          @ [ ("verify", Json.Bool r.config.verify) ]
          @
          match r.config.deadline_ms with
          | None -> []
          | Some ms -> [ ("deadline_ms", Json.Int ms) ]) );
    ]
  in
  Json.Obj
    ([ ("schema", Json.Str request_schema); ("id", Json.Str r.id); source_field ]
    @ defect_fields @ config_fields)

(* --- responses ------------------------------------------------------- *)

type status = Ok_mapped | Infeasible | Deadline | Failed

type response = {
  id : string;
  status : status;
  digest : string option;
  rows : int option;
  cols : int option;
  assignment : int array option;
  verified : bool option;
  error : string option;
}

let response ~id status =
  {
    id;
    status;
    digest = None;
    rows = None;
    cols = None;
    assignment = None;
    verified = None;
    error = None;
  }

let status_to_string = function
  | Ok_mapped -> "ok"
  | Infeasible -> "infeasible"
  | Deadline -> "deadline"
  | Failed -> "error"

let response_to_line r =
  let opt name conv = function None -> [] | Some v -> [ (name, conv v) ] in
  Json.to_string
    (Json.Obj
       ([
          ("schema", Json.Str response_schema);
          ("id", Json.Str r.id);
          ("status", Json.Str (status_to_string r.status));
        ]
       @ opt "digest" (fun d -> Json.Str d) r.digest
       @ opt "rows" (fun n -> Json.Int n) r.rows
       @ opt "cols" (fun n -> Json.Int n) r.cols
       @ opt "assignment"
           (fun a -> Json.List (Array.to_list (Array.map (fun i -> Json.Int i) a)))
           r.assignment
       @ opt "verified" (fun b -> Json.Bool b) r.verified
       @ opt "error" (fun e -> Json.Str e) r.error))
