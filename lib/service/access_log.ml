(* One mcx-access/1 JSONL record per served request. The field order is
   frozen (tests pin it): equal records must be byte-equal so the
   deterministic projection can be diffed across runs and job counts. *)

module Json = Mcx_util.Json_out

let schema = "mcx-access/1"

type cache_outcome = Hit | Miss | Coalesced | None_

type record = {
  index : int;
  id : string;
  source : string;
  digest : string option;
  cache : cache_outcome;
  status : string;
  bytes : int;
  parse_ns : int64;
  resolve_ns : int64;
  compute_ns : int64;
  render_ns : int64;
}

let cache_outcome_to_string = function
  | Hit -> "hit"
  | Miss -> "miss"
  | Coalesced -> "coalesced"
  | None_ -> "none"

let cache_outcome_of_string = function
  | "hit" -> Some Hit
  | "miss" -> Some Miss
  | "coalesced" -> Some Coalesced
  | "none" -> Some None_
  | _ -> None

let stage_names = [ "parse"; "resolve"; "compute"; "render" ]

let stage_ns r = function
  | "parse" -> r.parse_ns
  | "resolve" -> r.resolve_ns
  | "compute" -> r.compute_ns
  | "render" -> r.render_ns
  | stage -> invalid_arg ("Access_log.stage_ns: " ^ stage)

let to_json ~times r =
  Json.Obj
    ([
       ("schema", Json.Str schema);
       ("index", Json.Int r.index);
       ("id", Json.Str r.id);
       ("source", Json.Str r.source);
     ]
    @ (match r.digest with Some d -> [ ("digest", Json.Str d) ] | None -> [])
    @ [
        ("cache", Json.Str (cache_outcome_to_string r.cache));
        ("status", Json.Str r.status);
        ("bytes", Json.Int r.bytes);
      ]
    @
    if not times then []
    else
      List.map (fun stage -> (stage ^ "_ns", Json.Int (Int64.to_int (stage_ns r stage)))) stage_names
    )

let to_line ~times r = Json.to_string (to_json ~times r)

let of_json json =
  let str field = Option.bind (Json.member field json) Json.to_string_opt in
  let int field = Option.bind (Json.member field json) Json.to_int_opt in
  let ns field = Int64.of_int (Option.value (int field) ~default:0) in
  match str "schema" with
  | Some s when String.equal s schema -> (
    match (int "index", str "id", str "source", str "cache", str "status", int "bytes") with
    | Some index, Some id, Some source, Some cache, Some status, Some bytes -> (
      match cache_outcome_of_string cache with
      | None -> Error (Printf.sprintf "unknown cache outcome %S" cache)
      | Some cache ->
        Ok
          {
            index;
            id;
            source;
            digest = str "digest";
            cache;
            status;
            bytes;
            parse_ns = ns "parse_ns";
            resolve_ns = ns "resolve_ns";
            compute_ns = ns "compute_ns";
            render_ns = ns "render_ns";
          })
    | _ -> Error "missing access-record field")
  | Some s -> Error (Printf.sprintf "unexpected schema %S" s)
  | None -> Error "missing schema field"

let has_times json = Json.member "parse_ns" json <> None
