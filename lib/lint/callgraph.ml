(* Whole-program call-graph extraction from .cmt Typedtrees. See the mli
   for the model. The walk is a Tast_iterator with an overridden [expr]
   that threads mutable per-node context: the builder under construction,
   the catch-all-try nesting depth (contains Raise effects), and the
   stack of manually opened Telemetry spans (attributes calls made while
   a span is open to that span site). *)

type source_kind = Nondet | Io_out | Io_err | Raise

type source = {
  kind : source_kind;
  name : string;
  sline : int;
  scol : int;
  in_span : (int * int) option;
}

type edge = {
  callee : string;
  eline : int;
  ecol : int;
  raise_protected : bool;
  e_in_span : (int * int) option;
}

type span_site = { spline : int; spcol : int }

type closure_kind = Pool_closure | Replay_closure

type closure_site = {
  ckind : closure_kind;
  cfn : string;
  cline : int;
  ccol : int;
  target : string;
}

type node = {
  id : string;
  nfile : string;
  nline : int;
  ncol : int;
  mutable_state : bool;
  entrypoint : bool;
  sources : source list;
  edges : edge list;
  spans : span_site list;
  closures : closure_site list;
}

type summary = {
  modname : string;
  src : string;
  nodes : node list;
  typed_findings : Finding.t list;
}

(* --- canonical names -------------------------------------------------- *)

(* "Mcx_util__Pool" -> ["Mcx_util"; "Pool"]. Only module-looking segments
   (leading uppercase) are expanded; a value named [foo__bar] survives. *)
let split_mangled seg =
  let n = String.length seg in
  let parts = ref [] in
  let start = ref 0 in
  let i = ref 0 in
  while !i + 1 < n do
    if seg.[!i] = '_' && seg.[!i + 1] = '_' then begin
      if !i > !start then parts := String.sub seg !start (!i - !start) :: !parts;
      i := !i + 2;
      start := !i
    end
    else incr i
  done;
  if n > !start then parts := String.sub seg !start (n - !start) :: !parts;
  List.rev !parts

let expand_seg seg =
  if seg <> "" && seg.[0] >= 'A' && seg.[0] <= 'Z' then split_mangled seg else [ seg ]

let canonical name =
  String.split_on_char '.' name
  |> List.concat_map expand_seg
  |> List.filter (fun s -> s <> "")
  |> String.concat "."

(* --- effect-source tables --------------------------------------------- *)

let nondet_prefixes = [ "Stdlib.Random." ]

let nondet_exact =
  [
    "Unix.gettimeofday";
    "Unix.time";
    "Stdlib.Sys.time";
    "Stdlib.Hashtbl.hash";
    "Stdlib.Hashtbl.seeded_hash";
    "Stdlib.Hashtbl.hash_param";
    "Stdlib.Sys.getenv";
    "Stdlib.Sys.getenv_opt";
    "Unix.getenv";
    "Unix.environment";
    "Stdlib.Domain.recommended_domain_count";
    "Unix.getpid";
  ]

let io_out_names =
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
  ]

let io_err_names =
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
  ]

let raise_names =
  [
    "Stdlib.raise";
    "Stdlib.raise_notrace";
    "Stdlib.failwith";
    "Stdlib.invalid_arg";
    "Stdlib.Printexc.raise_with_backtrace";
  ]

let mut_ctor_names =
  [
    "Stdlib.ref";
    "Stdlib.Hashtbl.create";
    "Stdlib.Buffer.create";
    "Stdlib.Queue.create";
    "Stdlib.Stack.create";
  ]

let begin_span_name = "Mcx_util.Telemetry.begin_span"
let end_span_name = "Mcx_util.Telemetry.end_span"

(* Higher-order entries whose function arguments become closure sites:
   which arguments are the closure is either "every Nolabel arrow" or one
   specific label. *)
let closure_fns =
  [
    ("Mcx_util.Pool.map", (Pool_closure, `Arrows));
    ("Mcx_util.Pool.map_isolated", (Pool_closure, `Arrows));
    ("Mcx_util.Pool.map_reduce", (Pool_closure, `Label "map"));
    ("Mcx_util.Checkpoint.map", (Replay_closure, `Arrows));
  ]

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let source_kind_of name =
  if List.exists (fun p -> starts_with ~prefix:p name) nondet_prefixes then Some Nondet
  else if List.mem name nondet_exact then Some Nondet
  else if List.mem name io_out_names then Some Io_out
  else if List.mem name io_err_names then Some Io_err
  else if List.mem name raise_names then Some Raise
  else None

(* --- extraction ------------------------------------------------------- *)

type builder = {
  b_id : string;
  b_line : int;
  b_col : int;
  b_mut : bool;
  b_entry : bool;
  mutable b_sources : source list;
  mutable b_edges : edge list;
  mutable b_spans : span_site list;
  mutable b_closures : closure_site list;
}

type ctx = {
  c_file : string;
  in_telemetry : bool;
  mutable acc : node list;  (** finished nodes, reversed *)
  mutable cur : builder option;
  mutable protected : int;  (** catch-all [try] nesting depth *)
  mutable open_spans : (int * int) list;
  (* name -> [(ident, node id)]; stamps make shadowing a non-issue *)
  locals : (string, (Ident.t * string) list) Hashtbl.t;
}

let lc (loc : Location.t) =
  (loc.loc_start.pos_lnum, loc.loc_start.pos_cnum - loc.loc_start.pos_bol)

let register ctx id node_id =
  let name = Ident.name id in
  let prev = Option.value ~default:[] (Hashtbl.find_opt ctx.locals name) in
  Hashtbl.replace ctx.locals name ((id, node_id) :: prev)

let resolve_local ctx id =
  match Hashtbl.find_opt ctx.locals (Ident.name id) with
  | None -> None
  | Some l -> List.find_map (fun (i, n) -> if Ident.same i id then Some n else None) l

let finish ctx b =
  ctx.acc <-
    {
      id = b.b_id;
      nfile = ctx.c_file;
      nline = b.b_line;
      ncol = b.b_col;
      mutable_state = b.b_mut;
      entrypoint = b.b_entry;
      sources = List.rev b.b_sources;
      edges = List.rev b.b_edges;
      spans = List.rev b.b_spans;
      closures = List.rev b.b_closures;
    }
    :: ctx.acc

let cur_exn ctx = match ctx.cur with Some b -> b | None -> invalid_arg "Callgraph: no node"

let current_site ctx =
  if ctx.protected > 0 then None
  else match ctx.open_spans with [] -> None | s :: _ -> Some s

let add_source ctx kind name loc =
  let b = cur_exn ctx in
  let sline, scol = lc loc in
  b.b_sources <- { kind; name; sline; scol; in_span = current_site ctx } :: b.b_sources

let add_edge ctx callee loc =
  let b = cur_exn ctx in
  let eline, ecol = lc loc in
  let e =
    {
      callee;
      eline;
      ecol;
      raise_protected = ctx.protected > 0;
      e_in_span = current_site ctx;
    }
  in
  if not (List.mem e b.b_edges) then b.b_edges <- e :: b.b_edges

(* One identifier occurrence: an in-unit edge (stamp-resolved), a direct
   effect source, or a cross-module edge candidate (pruned at build). *)
let record_ref ctx path loc =
  match path with
  | Path.Pident id -> (
    match resolve_local ctx id with
    | Some node_id -> add_edge ctx node_id loc
    | None -> () (* plain local: its body was walked inline *))
  | _ -> (
    let name = canonical (Path.name path) in
    match source_kind_of name with
    | Some Raise -> if ctx.protected = 0 then add_source ctx Raise name loc
    | Some kind -> add_source ctx kind name loc
    | None ->
      if String.contains name '.' && not (starts_with ~prefix:"Stdlib." name) then
        add_edge ctx name loc)

let target_of_ident ctx path =
  match path with
  | Path.Pident id -> resolve_local ctx id
  | _ -> Some (canonical (Path.name path))

let rec is_arrow ty =
  match Types.get_desc ty with
  | Tarrow _ -> true
  | Tlink t | Tsubst (t, _) -> is_arrow t
  | Tpoly (t, _) -> is_arrow t
  | _ -> false

let has_attr name (attrs : Parsetree.attributes) =
  List.exists (fun (a : Parsetree.attribute) -> a.attr_name.txt = name) attrs

let entrypoint_attr = "mcx.lint.entrypoint"

(* Does the case body syntactically re-raise? *)
let case_reraises (rhs : Typedtree.expression) =
  let found = ref false in
  let super = Tast_iterator.default_iterator in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (p, _, _) ->
      (match Path.last p with
      | "raise" | "raise_notrace" | "raise_with_backtrace" | "reraise" -> found := true
      | _ -> ())
    | _ -> ());
    super.expr it e
  in
  let it = { super with expr } in
  it.expr it rhs;
  !found

let catch_all_case (c : Typedtree.value Typedtree.case) =
  (match c.c_lhs.pat_desc with Tpat_any | Tpat_var _ -> true | _ -> false)
  && c.c_guard = None

(* RHS that allocates top-level mutable state (constraints live in
   exp_extra, so no peeling needed on the Typedtree). *)
let mutable_rhs (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) ->
    List.mem (canonical (Path.name p)) mut_ctor_names
  | _ -> false

let pattern_vars pat =
  let acc = ref [] in
  let rec go : Typedtree.pattern -> unit =
   fun p ->
    match p.pat_desc with
    | Tpat_var (id, _) -> acc := id :: !acc
    | Tpat_alias (p, id, _) ->
      acc := id :: !acc;
      go p
    | Tpat_tuple ps | Tpat_construct (_, _, ps, _) | Tpat_array ps -> List.iter go ps
    | Tpat_record (fields, _) -> List.iter (fun (_, _, p) -> go p) fields
    | Tpat_variant (_, po, _) -> Option.iter go po
    | Tpat_lazy p -> go p
    | Tpat_or (a, b, _) ->
      go a;
      go b
    | Tpat_any | Tpat_constant _ -> ()
  in
  go pat;
  List.rev !acc

(* --- the expression iterator ------------------------------------------ *)

let rec make_iterator ctx =
  let super = Tast_iterator.default_iterator in
  let expr it (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_ident (path, { loc; _ }, _) -> record_ref ctx path loc
    | Texp_apply (({ exp_desc = Texp_ident (p, _, _); _ } as fn), args) -> (
      let fname = canonical (Path.name p) in
      let walk_args () =
        List.iter (fun (_, a) -> Option.iter (fun a -> it.Tast_iterator.expr it a) a) args
      in
      if fname = begin_span_name && not ctx.in_telemetry then begin
        let l, c = lc e.exp_loc in
        ctx.open_spans <- (l, c) :: ctx.open_spans;
        (cur_exn ctx).b_spans <- { spline = l; spcol = c } :: (cur_exn ctx).b_spans;
        walk_args ()
      end
      else if fname = end_span_name && not ctx.in_telemetry then begin
        (match ctx.open_spans with [] -> () | _ :: rest -> ctx.open_spans <- rest);
        walk_args ()
      end
      else
        match List.assoc_opt fname closure_fns with
        | None ->
          it.Tast_iterator.expr it fn;
          walk_args ()
        | Some (ckind, selector) ->
          it.Tast_iterator.expr it fn;
          List.iter
            (fun ((label : Asttypes.arg_label), (a : Typedtree.expression option)) ->
              match a with
              | None -> ()
              | Some arg ->
                let selected =
                  match selector with
                  | `Arrows -> label = Asttypes.Nolabel && is_arrow arg.exp_type
                  | `Label l -> label = Asttypes.Labelled l
                in
                if selected then closure_arg ctx ~ckind ~cfn:fname ~apploc:e.exp_loc arg
                else it.Tast_iterator.expr it arg)
            args)
    | Texp_let (_, vbs, body) ->
      (* Lift local [let f = fun ...] bindings into their own nodes so a
         trial closure keeps a separate effect footprint. Register the
         whole group first: [let rec f ... and g] resolves either way. *)
      let liftable (vb : Typedtree.value_binding) =
        match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
        | Tpat_var (id, _), Texp_function _ -> Some id
        | _ -> None
      in
      let sub_id vb id =
        let line, _ = lc vb.Typedtree.vb_loc in
        Printf.sprintf "%s.%s@%d" (cur_exn ctx).b_id (Ident.name id) line
      in
      List.iter
        (fun vb ->
          match liftable vb with Some id -> register ctx id (sub_id vb id) | None -> ())
        vbs;
      List.iter
        (fun (vb : Typedtree.value_binding) ->
          match liftable vb with
          | Some id ->
            let nid = sub_id vb id in
            walk_subnode ctx ~id:nid ~loc:vb.vb_loc vb.vb_expr;
            add_edge ctx nid vb.vb_loc
          | None -> it.Tast_iterator.expr it vb.vb_expr)
        vbs;
      it.Tast_iterator.expr it body
    | Texp_try (body, cases) ->
      let contained = List.exists (fun c -> catch_all_case c && not (case_reraises c.Typedtree.c_rhs)) cases in
      if contained then begin
        ctx.protected <- ctx.protected + 1;
        it.Tast_iterator.expr it body;
        ctx.protected <- ctx.protected - 1
      end
      else it.Tast_iterator.expr it body;
      List.iter
        (fun (c : Typedtree.value Typedtree.case) ->
          Option.iter (it.Tast_iterator.expr it) c.c_guard;
          it.Tast_iterator.expr it c.c_rhs)
        cases
    | Texp_assert _ ->
      if ctx.protected = 0 then add_source ctx Raise "assert" e.exp_loc;
      super.expr it e
    | _ -> super.expr it e
  in
  { super with expr }

(* Walk [body] as its own node (fresh span/protect context), then restore. *)
and walk_subnode ctx ~id ~(loc : Location.t) body =
  let line, col = lc loc in
  let sub =
    {
      b_id = id;
      b_line = line;
      b_col = col;
      b_mut = false;
      b_entry = false;
      b_sources = [];
      b_edges = [];
      b_spans = [];
      b_closures = [];
    }
  in
  let saved_cur = ctx.cur
  and saved_prot = ctx.protected
  and saved_spans = ctx.open_spans in
  ctx.cur <- Some sub;
  ctx.protected <- 0;
  ctx.open_spans <- [];
  let it = make_iterator ctx in
  it.Tast_iterator.expr it body;
  finish ctx sub;
  ctx.cur <- saved_cur;
  ctx.protected <- saved_prot;
  ctx.open_spans <- saved_spans

and closure_arg ctx ~ckind ~cfn ~(apploc : Location.t) (arg : Typedtree.expression) =
  let cline, ccol = lc apploc in
  let add target =
    (cur_exn ctx).b_closures <-
      { ckind; cfn; cline; ccol; target } :: (cur_exn ctx).b_closures
  in
  match arg.exp_desc with
  | Texp_ident (p, { loc; _ }, _) ->
    record_ref ctx p loc;
    (match target_of_ident ctx p with Some t -> add t | None -> ())
  | _ ->
    let l, c = lc arg.exp_loc in
    let sid = Printf.sprintf "%s:%d:%d#closure" ctx.c_file l c in
    walk_subnode ctx ~id:sid ~loc:arg.exp_loc arg;
    add_edge ctx sid arg.exp_loc;
    add sid

(* --- structure walking ------------------------------------------------ *)

let binding_node_id ~prefix (vb : Typedtree.value_binding) =
  match pattern_vars vb.vb_pat with
  | id :: _ -> (Some id, prefix ^ "." ^ Ident.name id)
  | [] ->
    let line, _ = lc vb.vb_loc in
    (None, Printf.sprintf "%s.(init@%d)" prefix line)

let rec register_structure ctx ~prefix (str : Typedtree.structure) =
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            match pattern_vars vb.vb_pat with
            | [] -> ()
            | primary :: rest ->
              let nid = prefix ^ "." ^ Ident.name primary in
              register ctx primary nid;
              (* secondary vars of one binding share the RHS: alias them *)
              List.iter (fun id -> register ctx id nid) rest)
          vbs
      | Tstr_module mb -> register_module ctx ~prefix mb
      | Tstr_recmodule mbs -> List.iter (register_module ctx ~prefix) mbs
      | _ -> ())
    str.str_items

and register_module ctx ~prefix (mb : Typedtree.module_binding) =
  let name =
    match mb.mb_id with Some i -> Ident.name i | None -> "_"
  in
  register_module_expr ctx ~prefix:(prefix ^ "." ^ name) mb.mb_expr

and register_module_expr ctx ~prefix (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_structure str -> register_structure ctx ~prefix str
  | Tmod_constraint (me, _, _, _) -> register_module_expr ctx ~prefix me
  | _ -> ()

let rec walk_structure ctx ~prefix (str : Typedtree.structure) =
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            let _, nid = binding_node_id ~prefix vb in
            let line, col = lc vb.vb_loc in
            let b =
              {
                b_id = nid;
                b_line = line;
                b_col = col;
                b_mut = mutable_rhs vb.vb_expr;
                b_entry = has_attr entrypoint_attr vb.vb_attributes;
                b_sources = [];
                b_edges = [];
                b_spans = [];
                b_closures = [];
              }
            in
            ctx.cur <- Some b;
            ctx.protected <- 0;
            ctx.open_spans <- [];
            let it = make_iterator ctx in
            it.Tast_iterator.expr it vb.vb_expr;
            finish ctx b;
            ctx.cur <- None)
          vbs
      | Tstr_eval (e, _) ->
        let line, col = lc item.str_loc in
        let b =
          {
            b_id = Printf.sprintf "%s.(init@%d)" prefix line;
            b_line = line;
            b_col = col;
            b_mut = false;
            b_entry = false;
            b_sources = [];
            b_edges = [];
            b_spans = [];
            b_closures = [];
          }
        in
        ctx.cur <- Some b;
        ctx.protected <- 0;
        ctx.open_spans <- [];
        let it = make_iterator ctx in
        it.Tast_iterator.expr it e;
        finish ctx b;
        ctx.cur <- None
      | Tstr_module mb -> walk_module ctx ~prefix mb
      | Tstr_recmodule mbs -> List.iter (walk_module ctx ~prefix) mbs
      | _ -> ())
    str.str_items

and walk_module ctx ~prefix (mb : Typedtree.module_binding) =
  let name = match mb.mb_id with Some i -> Ident.name i | None -> "_" in
  walk_module_expr ctx ~prefix:(prefix ^ "." ^ name) mb.mb_expr

and walk_module_expr ctx ~prefix (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_structure str -> walk_structure ctx ~prefix str
  | Tmod_constraint (me, _, _, _) -> walk_module_expr ctx ~prefix me
  | _ -> ()

let of_cmt ~file ~modname (str : Typedtree.structure) =
  let prefix = canonical modname in
  let ctx =
    {
      c_file = file;
      in_telemetry = starts_with ~prefix:"Mcx_util.Telemetry" prefix;
      acc = [];
      cur = None;
      protected = 0;
      open_spans = [];
      locals = Hashtbl.create 64;
    }
  in
  register_structure ctx ~prefix str;
  walk_structure ctx ~prefix str;
  List.rev ctx.acc

(* --- graph ------------------------------------------------------------ *)

type graph = { tbl : (string, node) Hashtbl.t; mods : int }

let build summaries =
  let summaries =
    List.sort_uniq (fun a b -> String.compare a.modname b.modname) summaries
  in
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      List.iter (fun n -> if not (Hashtbl.mem tbl n.id) then Hashtbl.add tbl n.id n) s.nodes)
    summaries;
  (* prune edges to nodes outside the program; order them for determinism *)
  let prune n =
    let edges =
      List.filter (fun e -> Hashtbl.mem tbl e.callee) n.edges
      |> List.sort (fun a b ->
             let c = String.compare a.callee b.callee in
             if c <> 0 then c
             else
               let c = Int.compare a.eline b.eline in
               if c <> 0 then c else Int.compare a.ecol b.ecol)
    in
    { n with edges }
  in
  let ids = Hashtbl.fold (fun id _ acc -> id :: acc) tbl [] in
  List.iter (fun id -> Hashtbl.replace tbl id (prune (Hashtbl.find tbl id))) ids;
  let mods =
    List.length (List.filter (fun s -> s.nodes <> []) summaries)
  in
  { tbl; mods }

let find g id = Hashtbl.find_opt g.tbl id
let iter_nodes g f =
  let ids = Hashtbl.fold (fun id _ acc -> id :: acc) g.tbl [] |> List.sort String.compare in
  List.iter (fun id -> f (Hashtbl.find g.tbl id)) ids

let node_count g = Hashtbl.length g.tbl
let module_count g = g.mods

(* --- Tarjan SCC (iterative) ------------------------------------------- *)

let sccs g =
  let ids = Hashtbl.fold (fun id _ acc -> id :: acc) g.tbl [] |> List.sort String.compare in
  let succs id =
    match Hashtbl.find_opt g.tbl id with
    | None -> [||]
    | Some n ->
      Array.of_list (List.sort_uniq String.compare (List.map (fun e -> e.callee) n.edges))
  in
  let index = Hashtbl.create 256 in
  let lowlink = Hashtbl.create 256 in
  let on_stack = Hashtbl.create 256 in
  let stack = ref [] in
  let counter = ref 0 in
  let components = ref [] in
  let visit root =
    if not (Hashtbl.mem index root) then begin
      (* frame: (node, successor array, next successor index) *)
      let frames = ref [ (root, succs root, ref 0) ] in
      Hashtbl.add index root !counter;
      Hashtbl.add lowlink root !counter;
      incr counter;
      stack := root :: !stack;
      Hashtbl.add on_stack root ();
      while !frames <> [] do
        match !frames with
        | [] -> ()
        | (v, ss, next) :: rest ->
          if !next < Array.length ss then begin
            let w = ss.(!next) in
            incr next;
            if not (Hashtbl.mem index w) then begin
              Hashtbl.add index w !counter;
              Hashtbl.add lowlink w !counter;
              incr counter;
              stack := w :: !stack;
              Hashtbl.add on_stack w ();
              frames := (w, succs w, ref 0) :: !frames
            end
            else if Hashtbl.mem on_stack w then
              Hashtbl.replace lowlink v
                (min (Hashtbl.find lowlink v) (Hashtbl.find index w))
          end
          else begin
            (* v done: pop frame, fold lowlink into parent, maybe emit SCC *)
            frames := rest;
            (match rest with
            | (parent, _, _) :: _ ->
              Hashtbl.replace lowlink parent
                (min (Hashtbl.find lowlink parent) (Hashtbl.find lowlink v))
            | [] -> ());
            if Hashtbl.find lowlink v = Hashtbl.find index v then begin
              let rec pop acc =
                match !stack with
                | [] -> acc
                | w :: rest ->
                  stack := rest;
                  Hashtbl.remove on_stack w;
                  if w = v then w :: acc else pop (w :: acc)
              in
              let comp = pop [] in
              components := List.sort String.compare comp :: !components
            end
          end
      done
    end
  in
  List.iter visit ids;
  List.rev !components
