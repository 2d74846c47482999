(* Untyped (Parsetree) rules: the ones that judge a shape of code rather
   than a resolved value — top-level mutable state, hand-rolled float
   JSON, catch-all handlers. Value bans live in [Typed_lint], which sees
   through [open]s and module aliases. Longidents are matched with a
   leading [Stdlib.] normalized away. *)

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
  let add ~rule ~loc message =
    if Rules.applies rule file then findings := finding ~file ~rule ~loc message :: !findings
  in
  let super = Ast_iterator.default_iterator in
  let expr it (e : Parsetree.expression) =
    (match e.pexp_desc with
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
              "catch-all handler swallows exceptions; match specific exceptions or \
               re-raise")
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
