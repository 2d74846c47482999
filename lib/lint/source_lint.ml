(* Untyped (Parsetree) rules. Each rule matches on resolved-looking
   longidents ([Stdlib.] prefixes are normalized away), so
   [Format.pp_print_string] is never confused with [print_string] and
   qualified aliases like [Stdlib.Random] are still caught. *)

let finding ~file ~rule ~(loc : Location.t) message =
  Finding.make ~file ~line:loc.loc_start.pos_lnum
    ~col:(loc.loc_start.pos_cnum - loc.loc_start.pos_bol)
    ~rule ~message

let rec flatten_lid (lid : Longident.t) =
  match lid with
  | Lident s -> [ s ]
  | Ldot (p, s) -> flatten_lid p @ [ s ]
  | Lapply (p, _) -> flatten_lid p

(* Normalize an ident path: drop a leading [Stdlib]. *)
let ident_path lid =
  match flatten_lid lid with "Stdlib" :: rest -> rest | path -> path

(* --- per-ident bans -------------------------------------------------- *)

let wallclock_idents =
  [ [ "Unix"; "gettimeofday" ]; [ "Unix"; "time" ]; [ "Sys"; "time" ] ]

let poly_hash_idents =
  [ [ "Hashtbl"; "hash" ]; [ "Hashtbl"; "seeded_hash" ]; [ "Hashtbl"; "hash_param" ] ]

let stdout_idents =
  [
    [ "print_endline" ];
    [ "print_string" ];
    [ "print_newline" ];
    [ "print_char" ];
    [ "print_int" ];
    [ "print_float" ];
    [ "print_bytes" ];
    [ "Printf"; "printf" ];
    [ "Format"; "printf" ];
    [ "Format"; "print_string" ];
    [ "Format"; "print_newline" ];
  ]

let stderr_idents =
  [
    [ "prerr_endline" ];
    [ "prerr_string" ];
    [ "prerr_newline" ];
    [ "prerr_char" ];
    [ "prerr_int" ];
    [ "prerr_float" ];
    [ "prerr_bytes" ];
    [ "Printf"; "eprintf" ];
    [ "Format"; "eprintf" ];
  ]

let sprintf_idents =
  [
    [ "Printf"; "sprintf" ];
    [ "Printf"; "bprintf" ];
    [ "Printf"; "fprintf" ];
    [ "Format"; "sprintf" ];
    [ "Format"; "asprintf" ];
  ]

let raise_idents = [ "raise"; "raise_notrace"; "raise_with_backtrace"; "reraise" ]

(* Mutable-state constructors banned at structure level. *)
let toplevel_state_idents =
  [
    [ "ref" ];
    [ "Hashtbl"; "create" ];
    [ "Buffer"; "create" ];
    [ "Queue"; "create" ];
    [ "Stack"; "create" ];
  ]

(* A format string that builds JSON by hand: a float conversion next to a
   ['{'] or a literal double quote. *)
let float_conv_and_json_syntax s =
  let n = String.length s in
  let has_float = ref false in
  let i = ref 0 in
  while !i < n - 1 do
    if s.[!i] = '%' then begin
      let j = ref (!i + 1) in
      while
        !j < n
        && (match s.[!j] with
           | '0' .. '9' | '.' | '+' | '-' | '#' | ' ' | '*' -> true
           | _ -> false)
      do
        incr j
      done;
      (if !j < n then
         match s.[!j] with 'f' | 'e' | 'g' | 'h' | 'F' | 'E' | 'G' | 'H' -> has_float := true | _ -> ());
      i := !j + 1
    end
    else incr i
  done;
  !has_float && (String.contains s '{' || String.contains s '"')

(* Does [e] syntactically contain a re-raise? *)
let contains_raise (e : Parsetree.expression) =
  let found = ref false in
  let super = Ast_iterator.default_iterator in
  let expr it (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> (
      match List.rev (ident_path txt) with
      | last :: _ when List.mem last raise_idents -> found := true
      | _ -> ())
    | _ -> ());
    super.expr it e
  in
  let it = { super with expr } in
  it.expr it e;
  !found

(* RHS of a structure-level binding that allocates mutable state. Peels
   constraints; a function body is fine (allocation happens per call). *)
let rec mutable_toplevel_rhs (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constraint (e, _) -> mutable_toplevel_rhs e
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
    if List.mem (ident_path txt) toplevel_state_idents then
      Some (String.concat "." (flatten_lid txt))
    else None
  | _ -> None

let run ~file (str : Parsetree.structure) =
  let findings = ref [] in
  let applies rule = Rules.applies rule file in
  let add ~rule ~loc message =
    if applies rule then findings := finding ~file ~rule ~loc message :: !findings
  in
  let check_ident (lid : Longident.t) (loc : Location.t) =
    let path = ident_path lid in
    let shown = String.concat "." (flatten_lid lid) in
    (match path with
    | "Random" :: _ ->
      add ~rule:"determinism-random" ~loc
        (Printf.sprintf
           "%s breaks MCX_JOBS bit-identity; derive a stream from Prng.Key instead" shown)
    | _ -> ());
    if List.mem path wallclock_idents then
      add ~rule:"determinism-wallclock" ~loc
        (Printf.sprintf "%s reads the wall clock; use Timing/Telemetry (monotonic)" shown);
    if List.mem path poly_hash_idents then
      add ~rule:"determinism-poly-hash" ~loc
        (Printf.sprintf
           "%s keeps 30 bits and traverses structures partially; use a dedicated hash"
           shown);
    if List.mem path stdout_idents then
      add ~rule:"output-print" ~loc
        (Printf.sprintf
           "%s writes to stdout from library code; route through Render/Texttable or a \
            Format printer"
           shown);
    if List.mem path stderr_idents then
      add ~rule:"output-stderr-print" ~loc
        (Printf.sprintf
           "%s prints raw text to stderr from an instrumented layer; emit a structured \
            record (Access_log, Telemetry, a returned Texttable) or move it to a \
            designated summary module"
           shown);
    match path with
    | [ "Obj"; "magic" ] -> add ~rule:"hygiene-obj-magic" ~loc "Obj.magic defeats the type system"
    | _ -> ()
  in
  let super = Ast_iterator.default_iterator in
  let expr it (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> check_ident txt loc
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
      when List.mem (ident_path txt) sprintf_idents ->
      List.iter
        (fun (_, (arg : Parsetree.expression)) ->
          match arg.pexp_desc with
          | Pexp_constant (Pconst_string (s, _, _)) when float_conv_and_json_syntax s ->
            add ~rule:"output-float-json" ~loc:arg.pexp_loc
              "hand-rolled float-to-JSON formatting; emit through Mcx_util.Json_out \
               (shortest round-trip floats, correct escaping)"
          | _ -> ())
        args
    | Pexp_try (_, cases) ->
      List.iter
        (fun (c : Parsetree.case) ->
          let catch_all =
            match c.pc_lhs.ppat_desc with Ppat_any | Ppat_var _ -> true | _ -> false
          in
          if catch_all && c.pc_guard = None && not (contains_raise c.pc_rhs) then
            add ~rule:"hygiene-catchall" ~loc:c.pc_lhs.ppat_loc
              "catch-all handler swallows exceptions (open Telemetry spans leak); match \
               specific exceptions or re-raise")
        cases
    | _ -> ());
    super.expr it e
  in
  let structure_item it (si : Parsetree.structure_item) =
    (match si.pstr_desc with
    | Pstr_value (_, bindings) ->
      List.iter
        (fun (vb : Parsetree.value_binding) ->
          match mutable_toplevel_rhs vb.pvb_expr with
          | Some ctor ->
            add ~rule:"domain-toplevel-state" ~loc:vb.pvb_loc
              (Printf.sprintf
                 "top-level %s is shared across Pool domains; allocate per use, guard it \
                  explicitly, or move it into a DLS key"
                 ctor)
          | None -> ())
        bindings
    | _ -> ());
    super.structure_item it si
  in
  let it = { super with expr; structure_item } in
  it.structure it str;
  List.rev !findings
