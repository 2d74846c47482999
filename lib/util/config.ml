(* The typed knob registry. Declaration order below is the canonical
   order everywhere: the snapshot, the digest, `memx config`, and the
   README reference table. *)

type provenance = Default | Env | Flag

let provenance_name = function Default -> "default" | Env -> "env" | Flag -> "flag"

exception Invalid of { knob : string; value : string; expected : string }

let () =
  Printexc.register_printer (function
    | Invalid { knob; value; expected } ->
      Some (Printf.sprintf "invalid %s=%S (expected %s)" knob value expected)
    | _ -> None)

type error = { knob : string; value : string; expected : string }

type spec = {
  s_name : string;
  s_ty : string;
  s_layer : string;
  s_semantic : bool;
  s_doc : string;
  s_default : Json_out.t;
  (* None = malformed; the parsed JSON value is what the snapshot
     renders. *)
  s_parse : string -> Json_out.t option;
  s_expected : string;
}

let parse_int ~min s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= min -> Some (Json_out.Int n)
  | Some _ | None -> None

let parse_float_01 s =
  match float_of_string_opt (String.trim s) with
  | Some r when r >= 0. && r <= 1. -> Some (Json_out.Float r)
  | Some _ | None -> None

let parse_bool s =
  match String.lowercase_ascii (String.trim s) with
  | "1" | "true" -> Some (Json_out.Bool true)
  | "0" | "false" -> Some (Json_out.Bool false)
  | _ -> None

let parse_path s = Some (Json_out.Str (String.trim s))

let registry : spec list =
  [
    {
      s_name = "MCX_JOBS";
      s_ty = "int";
      s_layer = "pool";
      s_semantic = false;
      s_doc = "worker-domain count (default: machine cores, clamped to 1-64)";
      s_default = Json_out.Null;
      s_parse = parse_int ~min:1;
      s_expected = "a positive integer (worker domains; clamped to 64)";
    };
    {
      s_name = "MCX_CHECKPOINT";
      s_ty = "path";
      s_layer = "checkpoint";
      s_semantic = false;
      s_doc = "journal completed trials under this directory";
      s_default = Json_out.Null;
      s_parse = parse_path;
      s_expected = "a directory path";
    };
    {
      s_name = "MCX_FAULT_RATE";
      s_ty = "float";
      s_layer = "checkpoint";
      s_semantic = true;
      s_doc = "deterministic fault-injection probability per trial";
      s_default = Json_out.Float 0.;
      s_parse = parse_float_01;
      s_expected = "a float in [0, 1]";
    };
    {
      s_name = "MCX_TRACE";
      s_ty = "path";
      s_layer = "telemetry";
      s_semantic = false;
      s_doc = "record telemetry and write a Chrome trace here at exit";
      s_default = Json_out.Null;
      s_parse = parse_path;
      s_expected = "a file path";
    };
    {
      s_name = "MCX_TRACE_TIMES";
      s_ty = "bool";
      s_layer = "telemetry";
      s_semantic = false;
      s_doc = "0/false switches summaries and logs to the deterministic projection";
      s_default = Json_out.Bool true;
      s_parse = parse_bool;
      s_expected = "0, 1, true or false";
    };
    {
      s_name = "MCX_CACHE_SIZE";
      s_ty = "int";
      s_layer = "serve";
      s_semantic = false;
      s_doc = "mapping-result cache capacity in entries (0 disables caching)";
      s_default = Json_out.Int 512;
      s_parse = parse_int ~min:0;
      s_expected = "a non-negative integer (cache entries; 0 disables)";
    };
    {
      s_name = "MCX_SAMPLES";
      s_ty = "int";
      s_layer = "bench";
      s_semantic = true;
      s_doc = "Monte Carlo sample-count override (default: each experiment's paper scale)";
      s_default = Json_out.Null;
      s_parse = parse_int ~min:1;
      s_expected = "a positive integer (Monte Carlo samples)";
    };
    {
      s_name = "MCX_GOLDEN_REGEN";
      s_ty = "path";
      s_layer = "test";
      s_semantic = true;
      s_doc = "regenerate golden test outputs into this directory instead of checking";
      s_default = Json_out.Null;
      s_parse = parse_path;
      s_expected = "a directory path";
    };
    {
      s_name = "MCX_FORCE_RESUME";
      s_ty = "bool";
      s_layer = "checkpoint";
      s_semantic = false;
      s_doc = "resume a journal whose recorded config digest mismatches the current one";
      s_default = Json_out.Bool false;
      s_parse = parse_bool;
      s_expected = "0, 1, true or false";
    };
  ]

let find_spec name =
  match List.find_opt (fun s -> String.equal s.s_name name) registry with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Config: unregistered knob %S" name)

(* --- flag overrides (guarded by [flags_mutex]) ----------------------- *)

let flags : (string, string) Hashtbl.t = Hashtbl.create 8
[@@mcx.lint.allow "domain-toplevel-state"]

let flags_mutex = Mutex.create ()

let flag_value name =
  Mutex.lock flags_mutex;
  let v = Hashtbl.find_opt flags name in
  Mutex.unlock flags_mutex;
  v

let set_flag name value =
  let spec = find_spec name in
  (match spec.s_parse value with
  | Some _ -> ()
  | None -> raise (Invalid { knob = name; value; expected = spec.s_expected }));
  Mutex.lock flags_mutex;
  Hashtbl.replace flags name value;
  Mutex.unlock flags_mutex

let reset_flags () =
  Mutex.lock flags_mutex;
  Hashtbl.reset flags;
  Mutex.unlock flags_mutex

(* --- the one sanctioned environment read ----------------------------- *)

(* The single Sys.getenv site the raw-env-read rule allows. A set but
   empty (or whitespace-only) variable counts as unset, so harnesses
   can clear a knob with [Unix.putenv name ""]. *)
let env_value name =
  match Sys.getenv_opt name with
  | Some s when not (String.equal (String.trim s) "") -> Some (String.trim s)
  | Some _ | None -> None

let raw name =
  match flag_value name with
  | Some v -> Some (v, Flag)
  | None -> (
    match env_value name with Some v -> Some (v, Env) | None -> None)

(* Effective (value, provenance), re-read on every call. *)
let parsed spec =
  match raw spec.s_name with
  | None -> (spec.s_default, Default)
  | Some (v, prov) -> (
    match spec.s_parse v with
    | Some json -> (json, prov)
    | None -> raise (Invalid { knob = spec.s_name; value = v; expected = spec.s_expected }))

(* --- typed accessors -------------------------------------------------- *)

let int_opt name =
  match parsed (find_spec name) with
  | Json_out.Int n, _ -> Some n
  | Json_out.Null, _ -> None
  | _ -> assert false

let path_opt name =
  match parsed (find_spec name) with
  | Json_out.Str s, _ -> Some s
  | Json_out.Null, _ -> None
  | _ -> assert false

let bool_knob name =
  match parsed (find_spec name) with Json_out.Bool b, _ -> b | _ -> assert false

let jobs () = int_opt "MCX_JOBS"

let jobs_resolved () =
  let n = match jobs () with Some n -> n | None -> Domain.recommended_domain_count () in
  max 1 (min 64 n)

let checkpoint_dir () = path_opt "MCX_CHECKPOINT"

let fault_rate () =
  match parsed (find_spec "MCX_FAULT_RATE") with
  | Json_out.Float r, _ -> r
  | _ -> assert false

let trace () = path_opt "MCX_TRACE"
let trace_times () = bool_knob "MCX_TRACE_TIMES"

let cache_size () =
  match int_opt "MCX_CACHE_SIZE" with Some n -> n | None -> assert false

let samples () = int_opt "MCX_SAMPLES"
let golden_regen () = path_opt "MCX_GOLDEN_REGEN"
let force_resume () = bool_knob "MCX_FORCE_RESUME"

(* --- diagnostics ------------------------------------------------------ *)

let errors () =
  List.filter_map
    (fun spec ->
      match raw spec.s_name with
      | None -> None
      | Some (v, _) -> (
        match spec.s_parse v with
        | Some _ -> None
        | None -> Some { knob = spec.s_name; value = v; expected = spec.s_expected }))
    registry

let registered name = List.exists (fun s -> String.equal s.s_name name) registry

let unknown () =
  Array.to_list (Unix.environment ())
  |> List.filter_map (fun binding ->
         match String.index_opt binding '=' with
         | None -> None
         | Some i ->
           let name = String.sub binding 0 i in
           let value = String.sub binding (i + 1) (String.length binding - i - 1) in
           (* The empty-is-unset convention applies here too, so a
              harness can retract a typo with [Unix.putenv name ""]. *)
           if
             String.length name >= 4
             && String.equal (String.sub name 0 4) "MCX_"
             && (not (registered name))
             && not (String.equal (String.trim value) "")
           then Some (name, value)
           else None)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* --- the mcx-config/1 snapshot ---------------------------------------- *)

type info = {
  name : string;
  ty : string;
  layer : string;
  semantic : bool;
  doc : string;
  default : Json_out.t;
  value : Json_out.t;
  prov : provenance;
}

let knobs () =
  List.map
    (fun spec ->
      let value, prov = parsed spec in
      {
        name = spec.s_name;
        ty = spec.s_ty;
        layer = spec.s_layer;
        semantic = spec.s_semantic;
        doc = spec.s_doc;
        default = spec.s_default;
        value;
        prov;
      })
    registry

let included ~semantic_only = List.filter (fun k -> (not semantic_only) || k.semantic) (knobs ())

(* MD5 over (name, value) pairs only: provenance is excluded so a value
   set by flag and the same value set by env digest identically. *)
let digest_of_knobs ks =
  Digest.to_hex
    (Digest.string
       (Json_out.to_string
          (Json_out.List
             (List.map
                (fun k ->
                  Json_out.Obj [ ("name", Json_out.Str k.name); ("value", k.value) ])
                ks))))

let digest ?(semantic_only = false) () = digest_of_knobs (included ~semantic_only)

let snapshot ?(semantic_only = false) () =
  let ks = included ~semantic_only in
  Json_out.Obj
    [
      ("schema", Json_out.Str "mcx-config/1");
      ("digest", Json_out.Str (digest_of_knobs ks));
      ( "knobs",
        Json_out.List
          (List.map
             (fun k ->
               Json_out.Obj
                 [
                   ("name", Json_out.Str k.name);
                   ("type", Json_out.Str k.ty);
                   ("layer", Json_out.Str k.layer);
                   ("semantic", Json_out.Bool k.semantic);
                   ("provenance", Json_out.Str (provenance_name k.prov));
                   ("value", k.value);
                   ("default", k.default);
                 ])
             ks) );
    ]
