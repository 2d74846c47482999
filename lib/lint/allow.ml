(* Two suppression mechanisms:

   1. [@mcx.lint.allow "rule-id"] attributes in the source. The attribute
      may carry one string payload naming a rule id, or no payload (which
      allows every rule). It suppresses any finding of that rule whose
      location falls inside the annotated node — attach it to an
      expression, a [let] binding ([@@...]) or float it at the top of a
      structure ([@@@...]) for whole-file effect. Inside lib/ it cannot
      suppress the owner-only rules ([Rules.attribute_suppresses]).

   2. A [lint.allow] file at the repo root: one entry per line,
      `<path-prefix> <rule-id|*>`, `#` comments. A finding is dropped when
      its file starts with the prefix and the rule matches. *)

type span = {
  rule : string option; (* None = every rule *)
  start_line : int;
  start_col : int;
  end_line : int;
  end_col : int;
  mutable used : bool;
      (* covered a finding of its rule at least once this run
         ([--check-allows]) *)
}

(* --- attribute spans ------------------------------------------------- *)

let attr_name = "mcx.lint.allow"

let payload_rule (attr : Parsetree.attribute) =
  match attr.attr_payload with
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
    Some s
  | _ -> None

let spans_of_attrs (attrs : Parsetree.attributes) (loc : Location.t) =
  List.filter_map
    (fun (attr : Parsetree.attribute) ->
      if attr.attr_name.txt <> attr_name then None
      else
        Some
          {
            rule = payload_rule attr;
            start_line = loc.loc_start.pos_lnum;
            start_col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
            end_line = loc.loc_end.pos_lnum;
            end_col = loc.loc_end.pos_cnum - loc.loc_end.pos_bol;
            used = false;
          })
    attrs

let whole_file_span rule =
  { rule; start_line = 0; start_col = 0; end_line = max_int; end_col = max_int; used = false }

(* Collect every allow-span in a structure: expression and binding
   attributes plus floating [@@@...] ones. *)
let spans_of_structure (str : Parsetree.structure) =
  let spans = ref [] in
  let add ss = spans := ss @ !spans in
  let super = Ast_iterator.default_iterator in
  let expr it (e : Parsetree.expression) =
    add (spans_of_attrs e.pexp_attributes e.pexp_loc);
    super.expr it e
  in
  let value_binding it (vb : Parsetree.value_binding) =
    add (spans_of_attrs vb.pvb_attributes vb.pvb_loc);
    super.value_binding it vb
  in
  let structure_item it (si : Parsetree.structure_item) =
    (match si.pstr_desc with
    | Pstr_attribute attr when attr.attr_name.txt = attr_name ->
      add [ whole_file_span (payload_rule attr) ]
    | Pstr_eval (_, attrs) -> add (spans_of_attrs attrs si.pstr_loc)
    | _ -> ());
    super.structure_item it si
  in
  let module_binding it (mb : Parsetree.module_binding) =
    add (spans_of_attrs mb.pmb_attributes mb.pmb_loc);
    super.module_binding it mb
  in
  let it = { super with expr; value_binding; structure_item; module_binding } in
  it.structure it str;
  !spans

let spans_of_signature (sg : Parsetree.signature) =
  let spans = ref [] in
  let add ss = spans := ss @ !spans in
  let super = Ast_iterator.default_iterator in
  let value_description it (vd : Parsetree.value_description) =
    add (spans_of_attrs vd.pval_attributes vd.pval_loc);
    super.value_description it vd
  in
  let signature_item it (si : Parsetree.signature_item) =
    (match si.psig_desc with
    | Psig_attribute attr when attr.attr_name.txt = attr_name ->
      add [ whole_file_span (payload_rule attr) ]
    | _ -> ());
    super.signature_item it si
  in
  let it = { super with value_description; signature_item } in
  it.signature it sg;
  !spans

let pos_leq (l1, c1) (l2, c2) = l1 < l2 || (l1 = l2 && c1 <= c2)

let span_covers span ~rule ~line ~col =
  (match span.rule with None -> true | Some r -> r = rule)
  && pos_leq (span.start_line, span.start_col) (line, col)
  && pos_leq (line, col) (span.end_line, span.end_col)

(* Mark every matching span used (no short-circuit): [--check-allows]
   must not call redundant-but-matching annotations stale. *)
let covers spans (f : Finding.t) =
  List.fold_left
    (fun acc s ->
      if span_covers s ~rule:f.rule ~line:f.line ~col:f.col then begin
        s.used <- true;
        true
      end
      else acc)
    false spans

(* --- lint.allow file ------------------------------------------------- *)

type file_entry = {
  prefix : string;
  allow_rule : string; (* "*" = all *)
  entry_line : int; (* 1-based line in lint.allow, for stale reporting *)
  mutable entry_used : bool;
}

let parse_allow_file_contents contents =
  String.split_on_char '\n' contents
  |> List.mapi (fun i line -> (i + 1, line))
  |> List.filter_map (fun (lineno, line) ->
         let line =
           match String.index_opt line '#' with
           | Some i -> String.sub line 0 i
           | None -> line
         in
         let line = String.trim line in
         if line = "" then None
         else
           match String.index_opt line ' ' with
           | None ->
             Some { prefix = line; allow_rule = "*"; entry_line = lineno; entry_used = false }
           | Some i ->
             let prefix = String.sub line 0 i in
             let rule = String.trim (String.sub line i (String.length line - i)) in
             Some
               {
                 prefix;
                 allow_rule = (if rule = "" then "*" else rule);
                 entry_line = lineno;
                 entry_used = false;
               })

let load_allow_file path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let contents = really_input_string ic n in
    close_in ic;
    parse_allow_file_contents contents
  end

let file_entry_matches e (f : Finding.t) =
  Rules.starts_with ~prefix:e.prefix f.Finding.file
  && (e.allow_rule = "*" || e.allow_rule = f.Finding.rule)

let allowed_by_file entries f =
  List.fold_left
    (fun acc e ->
      if file_entry_matches e f then begin
        e.entry_used <- true;
        true
      end
      else acc)
    false entries
