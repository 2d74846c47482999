(* Rule registry: ids, one-line synopses, and the path scope each rule
   applies to. Scoping is by repo-relative path (forward slashes). Fixture
   files under [test/lint_fixtures/] are treated as if they lived under
   [lib/] so that every rule — including the lib-scoped ones — can be
   exercised by a fixture; the real repo run suppresses that directory via
   [lint.allow]. *)

type kind = Source | Typed

type t = { id : string; synopsis : string; kind : kind }

let fixture_prefix = "test/lint_fixtures/"

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* Path [rel] as seen by scope checks: fixtures masquerade as lib code. *)
let effective_path rel =
  if starts_with ~prefix:fixture_prefix rel then
    "lib/lint_fixtures/"
    ^ String.sub rel (String.length fixture_prefix)
        (String.length rel - String.length fixture_prefix)
  else rel

let in_lib rel = starts_with ~prefix:"lib/" (effective_path rel)

let is_one_of rel files = List.mem (effective_path rel) files

(* The owner modules: the only lib files where nondeterminism and stdout
   may live. Randomness belongs to the splittable PRNG, clocks to the
   monotonic wrapper and the telemetry built on it, environment and host
   reads to the validated Config registry; nothing in lib writes to
   stdout and nothing hashes polymorphically. Inside lib an
   [@mcx.lint.allow] attribute cannot extend these lists (see
   [attribute_suppresses]); only a [lint.allow] path entry can. *)
let owners =
  [
    ("determinism-random", [ "lib/util/prng.ml" ]);
    ("determinism-wallclock", [ "lib/util/timing.ml"; "lib/util/telemetry.ml" ]);
    ("determinism-poly-hash", []);
    ("raw-env-read", [ "lib/util/config.ml" ]);
    ("output-print", []);
  ]

(* DLS-guarded modules exempt from the top-level mutable state rule. *)
let dls_guarded = [ "lib/util/telemetry.ml"; "lib/util/prng.ml" ]

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
      kind = Typed;
    };
    {
      id = "determinism-wallclock";
      synopsis =
        "wall-clock reads (Unix.gettimeofday/Unix.time/Sys.time) are banned outside \
         Timing/Telemetry";
      kind = Typed;
    };
    {
      id = "determinism-poly-hash";
      synopsis =
        "Hashtbl.hash/seeded_hash are banned everywhere (30-bit, partial traversal; the \
         pre-PR-1 seeding bug)";
      kind = Typed;
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
        "top-level mutable state (ref/Hashtbl.create/Buffer.create/...) races under \
         Pool domains; move it into the closure or guard it explicitly";
      kind = Source;
    };
    {
      id = "output-print";
      synopsis =
        "stdout printing in lib/ perturbs byte-comparable experiment output (and \
         diverges on checkpoint replay); return a Texttable or string instead";
      kind = Typed;
    };
    {
      id = "output-stderr-print";
      synopsis =
        "raw stderr printing (prerr_*/Printf.eprintf/Format.eprintf) in lib/util and \
         lib/service outside the designated summary modules; emit structured records \
         (Access_log, Telemetry) instead";
      kind = Typed;
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
      kind = Typed;
    };
    {
      id = "hygiene-catchall";
      synopsis = "catch-all exception handler that never re-raises swallows errors";
      kind = Source;
    };
    {
      id = "raw-env-read";
      synopsis =
        "environment and host reads (Sys.getenv/getenv_opt, Unix.getenv/environment/getpid, \
         Domain.recommended_domain_count) outside lib/util/config.ml; declare the knob in \
         the Config registry and read it through a typed accessor";
      kind = Typed;
    };
  ]

let ids = List.map (fun r -> r.id) all

let mem id = List.exists (fun r -> r.id = id) all

(* Does [rule] apply to the file at repo-relative path [rel]? *)
let applies rule rel =
  match rule with
  | "determinism-random" | "determinism-wallclock" | "determinism-poly-hash" | "raw-env-read"
    ->
    not (is_one_of rel (List.assoc rule owners))
  | "output-print" -> in_lib rel
  | "packed-poly-compare" | "float-sort-poly-compare" | "hygiene-obj-magic"
  | "hygiene-catchall" ->
    true
  | "domain-toplevel-state" -> not (is_one_of rel dls_guarded)
  | "output-stderr-print" -> in_instrumented rel && not (is_one_of rel stderr_owners)
  | "output-float-json" -> in_lib rel && not (is_one_of rel json_owners)
  | _ -> false

let attribute_suppresses rule rel = not (in_lib rel && List.mem_assoc rule owners)
