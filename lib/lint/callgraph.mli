(** Whole-program call graph, extracted from the [.cmt] files dune leaves
    under [_build/default].

    Each top-level value binding (including bindings in nested modules,
    and — lifted into their own nodes — local [let]-bound functions, so a
    trial closure defined inside a driver keeps its own effect footprint)
    becomes a {!node}. Walking the Typedtree via {!Tast_iterator} records,
    per node:

    - direct {e effect sources} (uses of [Random.*], wall clocks,
      environment reads, [Hashtbl.hash], stdout/stderr writers,
      [raise]/[failwith]/[assert]);
    - {e edges} to every other value the body references, across module
      boundaries (dune name-mangling like [Mcx_util__Pool] is normalized
      to [Mcx_util.Pool]), including first-class function uses;
    - manual {!Mcx_util.Telemetry.begin_span} sites and the calls made
      while a span is open;
    - closure arguments handed to [Pool.map]/[map_reduce]/[map_isolated]
      and [Checkpoint.map] (synthetic nodes when the argument is a
      literal [fun]).

    {!Driver} extracts one {!summary} per [.cmt] and {!build} joins them
    into the whole-program graph. *)

type source_kind = Nondet | Io_out | Io_err | Raise

type source = {
  kind : source_kind;
  name : string;  (** what was referenced, e.g. ["Stdlib.Random.int"] *)
  sline : int;
  scol : int;
  in_span : (int * int) option;
      (** innermost open [begin_span] site, when inside one unprotected *)
}

type edge = {
  callee : string;  (** canonical node id *)
  eline : int;
  ecol : int;
  raise_protected : bool;
      (** call sits under a catch-all [try]: its {!Raise} effect is contained *)
  e_in_span : (int * int) option;
}

type span_site = { spline : int; spcol : int }

type closure_kind = Pool_closure | Replay_closure

type closure_site = {
  ckind : closure_kind;
  cfn : string;  (** the higher-order entry, e.g. ["Mcx_util.Pool.map_isolated"] *)
  cline : int;
  ccol : int;
  target : string;  (** node id of the closure (synthetic for literal [fun]s) *)
}

type node = {
  id : string;  (** canonical dotted path, e.g. ["Mcx_util.Pool.default_jobs"] *)
  nfile : string;  (** repo-relative source file *)
  nline : int;
  ncol : int;
  mutable_state : bool;  (** top-level [ref]/[Hashtbl.create]/... binding *)
  entrypoint : bool;  (** carries [[\@\@mcx.lint.entrypoint]] *)
  sources : source list;
  edges : edge list;
  spans : span_site list;
  closures : closure_site list;
}

type summary = {
  modname : string;  (** canonical compilation-unit path *)
  src : string;  (** repo-relative source file *)
  nodes : node list;
  typed_findings : Finding.t list;
      (** the module's {!Typed_lint} findings, taken from the same
          [read_cmt] as the graph summary *)
}

val starts_with : prefix:string -> string -> bool

val canonical : string -> string
(** Expand dune name-mangling: each [__]-joined segment that starts with
    an uppercase letter splits into dotted path segments
    ([Mcx_util__Pool.map] → [Mcx_util.Pool.map]). *)

val of_cmt : file:string -> modname:string -> Typedtree.structure -> node list
(** Extract the nodes of one compiled module. [file] is repo-relative,
    [modname] the (mangled) compilation-unit name. *)

(** {2 Graph} *)

type graph

val build : summary list -> graph
(** Index nodes by id and prune edges/closure targets that point outside
    the analyzed program. Deterministic for a given summary set. *)

val find : graph -> string -> node option
val iter_nodes : graph -> (node -> unit) -> unit
val node_count : graph -> int
val module_count : graph -> int
(** Number of distinct compilation units contributing nodes. *)

val sccs : graph -> string list list
(** Strongly connected components (Tarjan), emitted in reverse
    topological order of the condensation: every component appears after
    all components it has edges into, so a single forward pass over the
    list is an effect fixpoint. Component members and the list itself are
    deterministically ordered. *)
