(* Typed rules, run over the Typedtree recovered from [.cmt] files
   (dune passes [-bin-annot]; [@check] materializes one per module). Every
   rule matches a value's resolved path: [open]s are already expanded by
   the typer, and module aliases bound in the unit ([module S = Sys],
   [let module R = Random in ...], a member of a local [struct]) are
   expanded here, so no spelling of a banned value escapes its rule.

   Types are matched structurally without environment expansion: a
   [Tconstr] whose path ends in [Cube.t], [Cube_packed.t] or [Bmatrix.t]
   (dune name-mangling like [Mcx_logic__Cube] is normalized) counts as a
   packed type. Inside those modules' own implementations the bare [t]
   counts too. *)

let packed_modules = [ "Cube"; "Cube_packed"; "Bmatrix" ]

(* Banned values: a resolved [Path.name] matching the predicate is a
   finding of the rule wherever [Rules.applies] says the rule holds. *)
let value_bans : (string * (string -> bool) * string) list =
  let one_of names name = List.mem name names in
  [
    ( "determinism-random",
      Rules.starts_with ~prefix:"Stdlib.Random.",
      "breaks MCX_JOBS bit-identity; derive a stream from Prng.Key instead" );
    ( "determinism-wallclock",
      one_of [ "Unix.gettimeofday"; "Unix.time"; "Stdlib.Sys.time" ],
      "reads the wall clock; use Timing/Telemetry (monotonic)" );
    ( "determinism-poly-hash",
      one_of [ "Stdlib.Hashtbl.hash"; "Stdlib.Hashtbl.seeded_hash"; "Stdlib.Hashtbl.hash_param" ],
      "keeps 30 bits and traverses structures partially; use a dedicated hash" );
    (* Every MCX_* knob (and anything else the run depends on) comes
       through the typed Config registry — the one validated,
       snapshot-recorded boundary — not ad-hoc reads of the host. *)
    ( "raw-env-read",
      one_of
        [
          "Stdlib.Sys.getenv";
          "Stdlib.Sys.getenv_opt";
          "Unix.getenv";
          "Unix.environment";
          "Unix.getpid";
          "Stdlib.Domain.recommended_domain_count";
        ],
      "reads the environment directly; declare the knob in Mcx_util.Config and use its \
       typed accessor (validated, and recorded in the mcx-config/1 snapshot)" );
    ( "output-print",
      one_of
        [
          "Stdlib.print_endline";
          "Stdlib.print_string";
          "Stdlib.print_newline";
          "Stdlib.print_char";
          "Stdlib.print_int";
          "Stdlib.print_float";
          "Stdlib.print_bytes";
          "Stdlib.Printf.printf";
          "Stdlib.Format.printf";
          "Stdlib.Format.print_string";
          "Stdlib.Format.print_newline";
        ],
      "writes to stdout from library code; route through Render/Texttable or a Format \
       printer" );
    ( "output-stderr-print",
      one_of
        [
          "Stdlib.prerr_endline";
          "Stdlib.prerr_string";
          "Stdlib.prerr_newline";
          "Stdlib.prerr_char";
          "Stdlib.prerr_int";
          "Stdlib.prerr_float";
          "Stdlib.prerr_bytes";
          "Stdlib.Printf.eprintf";
          "Stdlib.Format.eprintf";
        ],
      "prints raw text to stderr from an instrumented layer; emit a structured record \
       (Access_log, Telemetry, a returned Texttable) or move it to a designated summary \
       module" );
    ("hygiene-obj-magic", one_of [ "Stdlib.Obj.magic" ], "defeats the type system");
  ]

(* Polymorphic-structure functions that silently order/compare/hash packed
   values by their physical representation. *)
let poly_fns =
  [
    "Stdlib.compare";
    "Stdlib.=";
    "Stdlib.<>";
    "Stdlib.<";
    "Stdlib.>";
    "Stdlib.<=";
    "Stdlib.>=";
    "Stdlib.min";
    "Stdlib.max";
    "Stdlib.Hashtbl.find";
    "Stdlib.Hashtbl.find_opt";
    "Stdlib.Hashtbl.find_all";
    "Stdlib.Hashtbl.mem";
    "Stdlib.Hashtbl.add";
    "Stdlib.Hashtbl.replace";
    "Stdlib.Hashtbl.remove";
    "Stdlib.List.mem";
    "Stdlib.List.assoc";
    "Stdlib.List.assoc_opt";
    "Stdlib.List.mem_assoc";
    "Stdlib.List.remove_assoc";
    "Stdlib.Array.mem";
  ]

(* Sort entry points whose comparator argument decides element order. A
   polymorphic comparator instantiated at [float] works by boxing and
   structural comparison — slow on the Monte Carlo hot path, and it was
   the percentile bug: use [Float.compare]. *)
let sort_fns =
  [
    "Stdlib.Array.sort";
    "Stdlib.Array.stable_sort";
    "Stdlib.Array.fast_sort";
    "Stdlib.List.sort";
    "Stdlib.List.stable_sort";
    "Stdlib.List.fast_sort";
    "Stdlib.List.sort_uniq";
  ]

(* The polymorphic comparators a sort site must not use at float. *)
let poly_comparators = [ "Stdlib.compare"; "Stdlib.Poly.compare" ]

(* --- module aliases --------------------------------------------------- *)

(* Aliases bound in the unit, keyed by the bound ident's unique name and,
   for a member of a local [struct], also by each enclosing module's key
   plus the member name ("M_12.T"), which is how [M.T.getenv] reaches
   it. Values are already-resolved targets. *)
let rec path_key (p : Path.t) =
  match p with
  | Pident id -> Some (Ident.unique_name id)
  | Pdot (q, s) -> Option.map (fun k -> k ^ "." ^ s) (path_key q)
  | _ -> None

let rec resolve aliases (p : Path.t) =
  let p = match p with Pdot (q, s) -> Path.Pdot (resolve aliases q, s) | _ -> p in
  match Option.bind (path_key p) (Hashtbl.find_opt aliases) with
  | Some target -> target
  | None -> p

let rec peel (me : Typedtree.module_expr) =
  match me.mod_desc with Tmod_constraint (me, _, _, _) -> peel me | _ -> me

(* --- packed and float types ------------------------------------------- *)

(* Last segment of a dune-mangled module name: "Mcx_logic__Cube" -> "Cube". *)
let unmangle seg =
  let n = String.length seg in
  let rec find i best =
    if i + 1 >= n then best
    else if seg.[i] = '_' && seg.[i + 1] = '_' then find (i + 2) (Some (i + 2))
    else find (i + 1) best
  in
  match find 0 None with Some j -> String.sub seg j (n - j) | None -> seg

let path_is_packed ~self path =
  match List.rev (String.split_on_char '.' (Path.name path)) with
  | [ "t" ] -> (match self with Some m -> List.mem m packed_modules | None -> false)
  | "t" :: owner :: _ -> List.mem (unmangle owner) packed_modules
  | _ -> false

(* Walk a type_expr looking for a packed Tconstr; visited set breaks
   recursive-type cycles. *)
let type_mentions_packed ~self ty =
  let visited = Hashtbl.create 16 in
  let exception Found of string in
  let rec walk ty =
    let id = Types.get_id ty in
    if not (Hashtbl.mem visited id) then begin
      Hashtbl.add visited id ();
      match Types.get_desc ty with
      | Tconstr (p, args, _) ->
        if path_is_packed ~self p then raise (Found (Path.name p));
        List.iter walk args
      | Tarrow (_, a, b, _) ->
        walk a;
        walk b
      | Ttuple ts -> List.iter walk ts
      | Tpoly (t, ts) ->
        walk t;
        List.iter walk ts
      | Tlink t | Tsubst (t, _) -> walk t
      | Tvar _ | Tunivar _ | Tnil | Tobject _ | Tfield _ | Tvariant _ | Tpackage _ -> ()
    end
  in
  match walk ty with () -> None | exception Found name -> Some name

(* Is [ty] (after link/subst chasing) the predefined [float]? *)
let rec type_is_float ty =
  match Types.get_desc ty with
  | Tconstr (p, [], _) -> Path.name p = "float"
  | Tlink t | Tsubst (t, _) -> type_is_float t
  | _ -> false

(* A comparator instantiated as [float -> float -> int]? *)
let comparator_at_float ty =
  match Types.get_desc ty with
  | Tarrow (_, a, _, _) -> type_is_float a
  | _ -> false

let finding ~file ~rule ~(loc : Location.t) message =
  Finding.make ~file ~line:loc.loc_start.pos_lnum
    ~col:(loc.loc_start.pos_cnum - loc.loc_start.pos_bol)
    ~rule ~message

(* [self]: when linting one of the packed modules' own cmt, its bare [t]
   is packed. [modname] is the cmt's compilation-unit name. *)
let self_of_modname modname =
  let m = unmangle modname in
  if List.mem m packed_modules then Some m else None

let run ~file ~modname (str : Typedtree.structure) =
  let findings = ref [] in
  let self = self_of_modname modname in
  let add ~rule ~loc message =
    if Rules.applies rule file then findings := finding ~file ~rule ~loc message :: !findings
  in
  let aliases = Hashtbl.create 8 in
  (* Keys under which the structure being walked is reachable. *)
  let scopes = ref [] in
  let name p = Path.name (resolve aliases p) in
  let super = Tast_iterator.default_iterator in
  (* Record [id] when [me] aliases a module, then walk [me] with [id]'s
     keys as the enclosing scopes of its members. A [let module] is no
     member of the structure around it: its [outer] is []. *)
  let bind it ~outer id (me : Typedtree.module_expr) =
    let saved = !scopes in
    let keys =
      match id with
      | Some id ->
        Ident.unique_name id :: List.map (fun s -> s ^ "." ^ Ident.name id) outer
      | None -> []
    in
    scopes :=
      (match (peel me).mod_desc with
      | Tmod_ident (p, _) ->
        let target = resolve aliases p in
        List.iter (fun k -> Hashtbl.replace aliases k target) keys;
        []
      | Tmod_structure _ -> keys
      | _ -> []);
    it.Tast_iterator.module_expr it me;
    scopes := saved
  in
  let module_binding it (mb : Typedtree.module_binding) =
    bind it ~outer:!scopes mb.mb_id mb.mb_expr
  in
  let check_value (e : Typedtree.expression) path (lid : Longident.t Location.loc) =
    let name = name path in
    (* Findings name the value as written, and what an open or an alias
       made it stand for. *)
    let shown =
      let written = Format.asprintf "%a" Pprintast.longident lid.txt in
      if written = name || "Stdlib." ^ written = name then written
      else Printf.sprintf "%s (%s)" written name
    in
    List.iter
      (fun (rule, banned, why) ->
        if banned name then add ~rule ~loc:lid.loc (Printf.sprintf "%s %s" shown why))
      value_bans;
    if List.mem name poly_fns then
      match type_mentions_packed ~self e.exp_type with
      | Some packed ->
        add ~rule:"packed-poly-compare" ~loc:lid.loc
          (Printf.sprintf
             "%s instantiated at packed type %s; use the module's equal/compare/hash \
              (packed words, not structure, decide the answer)"
             name packed)
      | None -> ()
  in
  let check_sort fn (args : (Asttypes.arg_label * Typedtree.expression option) list) =
    match args with
    | (_, Some ({ exp_desc = Texp_ident (cmp, { loc; _ }, _); _ } as cexp)) :: _
      when List.mem (name cmp) poly_comparators && comparator_at_float cexp.exp_type ->
      add ~rule:"float-sort-poly-compare" ~loc
        (Printf.sprintf
           "%s with polymorphic %s at float; use Float.compare (unboxed compare, total \
            order over NaN)"
           (name fn) (name cmp))
    | _ -> ()
  in
  let expr it (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_letmodule (id, _, _, me, body) ->
      bind it ~outer:[] id me;
      it.expr it body
    | _ ->
      (match e.exp_desc with
      | Texp_ident (path, lid, _) -> check_value e path lid
      | Texp_apply ({ exp_desc = Texp_ident (fn, _, _); _ }, args)
        when List.mem (name fn) sort_fns ->
        check_sort fn args
      | _ -> ());
      super.expr it e
  in
  let it = { super with expr; module_binding } in
  it.structure it str;
  List.rev !findings
