(* Rule registry: ids, one-line synopses, and the path scope each rule
   applies to. Scoping is by repo-relative path (forward slashes). Fixture
   files under [test/lint_fixtures/] are treated as if they lived under
   [lib/] so that every rule — including the lib-scoped ones — can be
   exercised by a fixture; the real repo run suppresses that directory via
   [lint.allow]. *)

type kind = Source | Typed | Interproc

type t = { id : string; synopsis : string; kind : kind }

let fixture_prefix = "test/lint_fixtures/"

(* Path [rel] as seen by scope checks: fixtures masquerade as lib code. *)
let effective_path rel =
  match String.length rel >= String.length fixture_prefix
        && String.sub rel 0 (String.length fixture_prefix) = fixture_prefix
  with
  | true ->
    "lib/lint_fixtures/"
    ^ String.sub rel (String.length fixture_prefix)
        (String.length rel - String.length fixture_prefix)
  | false -> rel

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let in_lib rel = starts_with ~prefix:"lib/" (effective_path rel)

let is_one_of rel files = List.mem (effective_path rel) files

(* Modules allowed to hold wall clocks: the monotonic-clock wrapper and the
   telemetry subsystem built on it. *)
let clock_owners =
  [ "lib/util/timing.ml"; "lib/util/timing.mli"; "lib/util/telemetry.ml"; "lib/util/telemetry.mli" ]

(* The only module allowed to touch OCaml's [Random]: the deterministic
   splittable PRNG that replaces it. *)
let prng_owners = [ "lib/util/prng.ml"; "lib/util/prng.mli" ]

(* DLS-guarded modules exempt from the top-level mutable state rule. *)
let dls_guarded = [ "lib/util/telemetry.ml"; "lib/util/prng.ml" ]

let dls_guarded_file rel = is_one_of rel dls_guarded

(* Designated rendering/report modules that may write to stdout. *)
let render_owners = [ "lib/crossbar/render.ml"; "lib/util/texttable.ml" ]

(* Designated stderr summary/logging modules in the instrumented layers
   (checkpoint resume/degradation notices; the telemetry exit summary).
   Everything else in lib/util and lib/service must surface diagnostics
   through structured channels — Access_log, Telemetry, return values —
   not ad-hoc prints that no tool can ingest. *)
let stderr_owners = [ "lib/util/checkpoint.ml"; "lib/util/telemetry.ml" ]

let in_instrumented rel =
  let p = effective_path rel in
  starts_with ~prefix:"lib/util/" p
  || starts_with ~prefix:"lib/service/" p
  || starts_with ~prefix:"lib/lint_fixtures/" p

(* The JSON emitter itself is the one place float formatting may live. *)
let json_owners = [ "lib/util/json_out.ml" ]

let all : t list =
  [
    {
      id = "determinism-random";
      synopsis =
        "Stdlib.Random is banned outside lib/util/prng.ml; derive a Prng.Key stream instead";
      kind = Source;
    };
    {
      id = "determinism-wallclock";
      synopsis =
        "wall-clock reads (Unix.gettimeofday/Unix.time/Sys.time) are banned outside \
         Timing/Telemetry";
      kind = Source;
    };
    {
      id = "determinism-poly-hash";
      synopsis =
        "Hashtbl.hash/seeded_hash are banned everywhere (30-bit, partial traversal; the \
         pre-PR-1 seeding bug)";
      kind = Source;
    };
    {
      id = "packed-poly-compare";
      synopsis =
        "polymorphic =/<>/compare/min/max and Hashtbl/List.mem-family instantiated at \
         Cube.t, Cube_packed.t or Bmatrix.t; use the dedicated equal/compare/hash";
      kind = Typed;
    };
    {
      id = "float-sort-poly-compare";
      synopsis =
        "Array.sort/List.sort with the polymorphic comparator at float; use Float.compare \
         (no per-element boxing, and NaN gets a total order)";
      kind = Typed;
    };
    {
      id = "domain-toplevel-state";
      synopsis =
        "top-level mutable state (ref/Hashtbl.create/Buffer.create/...) in lib/ races \
         under Pool domains; move it into the closure or guard it explicitly";
      kind = Source;
    };
    {
      id = "output-print";
      synopsis =
        "stdout printing in lib/ outside Render/Texttable perturbs byte-comparable \
         experiment output";
      kind = Source;
    };
    {
      id = "output-stderr-print";
      synopsis =
        "raw stderr printing (prerr_*/Printf.eprintf/Format.eprintf) in lib/util and \
         lib/service outside the designated summary modules; emit structured records \
         (Access_log, Telemetry) instead";
      kind = Source;
    };
    {
      id = "output-float-json";
      synopsis =
        "hand-rolled float-to-JSON formatting (sprintf with %f and '{'/'\"'); use \
         Mcx_util.Json_out";
      kind = Source;
    };
    {
      id = "hygiene-obj-magic";
      synopsis = "Obj.magic defeats the type system";
      kind = Source;
    };
    {
      id = "hygiene-catchall";
      synopsis =
        "catch-all exception handler that never re-raises swallows errors (and leaks \
         open Telemetry spans)";
      kind = Source;
    };
    {
      id = "hygiene-deprecated";
      synopsis = "use of a value marked [@@deprecated]";
      kind = Typed;
    };
    {
      id = "raw-env-read";
      synopsis =
        "Sys.getenv/getenv_opt/Unix.getenv outside lib/util/config.ml; declare the \
         knob in the Config registry and read it through a typed accessor";
      kind = Typed;
    };
    {
      id = "transitive-nondet";
      synopsis =
        "an experiment driver / Serve handler / Checkpoint replay entry can reach \
         Random, a wall clock, an env read or Hashtbl.hash through its call graph \
         without passing through Prng/Telemetry/Timing";
      kind = Interproc;
    };
    {
      id = "pool-closure-capture";
      synopsis =
        "a closure handed to Pool.map/map_reduce/map_isolated reaches top-level \
         mutable state, which races across worker domains";
      kind = Interproc;
    };
    {
      id = "span-exception-unsafe";
      synopsis =
        "a Telemetry.begin_span scope can be escaped by an exception before \
         end_span runs, leaking the open span";
      kind = Interproc;
    };
    {
      id = "replay-io-divergence";
      synopsis =
        "a trial function journaled by Checkpoint.map writes to stdout; replayed \
         (resumed) sweeps skip the trial, so resumed output diverges";
      kind = Interproc;
    };
  ]

let ids = List.map (fun r -> r.id) all

let mem id = List.exists (fun r -> r.id = id) all

(* Does [rule] apply to the file at repo-relative path [rel]? *)
let applies rule rel =
  match rule with
  | "determinism-random" -> not (is_one_of rel prng_owners)
  | "determinism-wallclock" -> not (is_one_of rel clock_owners)
  | "determinism-poly-hash" | "packed-poly-compare" | "float-sort-poly-compare"
  | "hygiene-obj-magic" | "hygiene-catchall" | "hygiene-deprecated" ->
    true
  | "raw-env-read" -> not (is_one_of rel [ "lib/util/config.ml" ])
  | "domain-toplevel-state" -> in_lib rel && not (is_one_of rel dls_guarded)
  | "output-print" -> in_lib rel && not (is_one_of rel render_owners)
  | "output-stderr-print" -> in_instrumented rel && not (is_one_of rel stderr_owners)
  | "output-float-json" -> in_lib rel && not (is_one_of rel json_owners)
  (* Interprocedural rules report at the root/closure/span site; whether a
     chain is a violation is decided by the effect engine (barriers and
     sanctioned modules), not by per-file scoping. *)
  | "transitive-nondet" | "pool-closure-capture" | "span-exception-unsafe"
  | "replay-io-divergence" ->
    true
  | _ -> false
