(* Microbenchmark of the packed cube / Bmatrix kernels against the naive
   reference implementations in Mcx.Logic.Naive, with a built-in
   self-check: every workload is first verified packed-vs-reference and a
   disagreement exits nonzero, so CI can run this as a smoke test.

   Usage:
     dune exec bench/kernels.exe            # full iteration counts
     dune exec bench/kernels.exe -- --smoke # ~20x fewer iterations (CI)
     dune exec bench/kernels.exe -- --out path.json

   Output: a human-readable table on stdout and a machine-readable
   BENCH_kernels.json (schema documented in EXPERIMENTS.md):
     { "schema": "mcx-bench-kernels/1", "word_bits": ..., "smoke": ...,
       "results": [ { "op", "n", "iterations",
                      "packed_ns_per_op", "reference_ns_per_op",
                      "speedup" }, ... ] } *)

let seed = 2018

let smoke = Array.exists (String.equal "--smoke") Sys.argv

let out_path =
  let rec find i =
    if i >= Array.length Sys.argv - 1 then "BENCH_kernels.json"
    else if String.equal Sys.argv.(i) "--out" then Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

let scale n = if smoke then max 1 (n / 20) else n

(* Keep results observable so the timed loops cannot be optimized away.
   This and the two result accumulators below are top-level state on
   purpose: kernels.exe runs every loop on the main domain, with no Pool,
   and an Atomic here would put a fence inside the timed loops. *)
let sink = ref 0 [@@mcx.lint.allow "domain-toplevel-state"]
let observe_bool b = if b then incr sink
let observe_int n = sink := !sink + n

let prng_for name = Mcx.Util.Prng.(of_key (Key.string (Key.root seed) name))

let lit_of_int = function
  | 0 -> Mcx.Logic.Literal.Neg
  | 1 -> Mcx.Logic.Literal.Pos
  | _ -> Mcx.Logic.Literal.Absent

let random_lits prng ~arity ~absent_bias =
  Array.init arity (fun _ ->
      if Mcx.Util.Prng.bernoulli prng absent_bias then Mcx.Logic.Literal.Absent
      else lit_of_int (Mcx.Util.Prng.int prng 2))

(* Median-of-repeats per-op nanoseconds for [run ()] covering [ops] ops. *)
let time_ns_per_op ~ops run =
  run ();
  (* warm-up *)
  let samples =
    List.init 5 (fun _ ->
        let (), dt = Mcx.Util.Timing.time run in
        1e9 *. dt /. float_of_int ops)
  in
  List.nth (List.sort Float.compare samples) 2

type result = {
  op : string;
  n : int;
  iterations : int;
  packed_ns : float;
  reference_ns : float;
}

let results : result list ref = ref [] [@@mcx.lint.allow "domain-toplevel-state"]

let mismatches = ref 0 [@@mcx.lint.allow "domain-toplevel-state"]

let check ~op ok =
  if not ok then begin
    incr mismatches;
    Printf.eprintf "SELF-CHECK FAILED: packed %s disagrees with reference\n%!" op
  end

let record ~op ~n ~iters ~ops ~self_check ~packed ~reference =
  check ~op (self_check ());
  let packed_ns = time_ns_per_op ~ops:(iters * ops) (fun () ->
      for _ = 1 to iters do packed () done)
  in
  let reference_ns = time_ns_per_op ~ops:(iters * ops) (fun () ->
      for _ = 1 to iters do reference () done)
  in
  results := { op; n; iterations = iters * ops; packed_ns; reference_ns } :: !results

(* ------------------------------------------------------------------ *)
(* Cube kernels                                                        *)
(* ------------------------------------------------------------------ *)

let cube_pairs ~arity ~count =
  let prng = prng_for (Printf.sprintf "cube%d" arity) in
  Array.init count (fun _ ->
      let a = random_lits prng ~arity ~absent_bias:0.5 in
      (* half the pairs are specializations so covers/intersect succeed *)
      let b =
        if Mcx.Util.Prng.bool prng then begin
          let b = Array.copy a in
          Array.iteri
            (fun i l ->
              if
                Mcx.Logic.Literal.equal l Mcx.Logic.Literal.Absent
                && Mcx.Util.Prng.bool prng
              then b.(i) <- lit_of_int (Mcx.Util.Prng.int prng 2))
            a;
          b
        end
        else random_lits prng ~arity ~absent_bias:0.5
      in
      (a, b))

(* [check_pair] compares the naive and packed results on one input pair;
   [naive_run]/[packed_run] are the bare throughput loops. *)
let bench_cube_op ~op ~arity ~iters ~packed_run ~naive_run ~check_pair =
  let pairs = cube_pairs ~arity ~count:64 in
  let packed =
    Array.map (fun (a, b) -> (Mcx.Logic.Naive.of_cube a, Mcx.Logic.Naive.of_cube b)) pairs
  in
  record ~op ~n:arity ~iters ~ops:(Array.length pairs)
    ~self_check:(fun () -> Array.for_all2 check_pair pairs packed)
    ~packed:(fun () -> Array.iter packed_run packed)
    ~reference:(fun () -> Array.iter naive_run pairs)

let opt_cube_agree a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> Mcx.Logic.Cube.equal (Mcx.Logic.Naive.of_cube a) b
  | None, Some _ | Some _, None -> false

let bench_cubes () =
  List.iter
    (fun arity ->
      bench_cube_op ~op:"cube_covers" ~arity ~iters:(scale 20_000)
        ~packed_run:(fun (a, b) -> observe_bool (Mcx.Logic.Cube.covers a b))
        ~naive_run:(fun (a, b) -> observe_bool (Mcx.Logic.Naive.covers a b))
        ~check_pair:(fun (a, b) (pa, pb) ->
          Mcx.Logic.Naive.covers a b = Mcx.Logic.Cube.covers pa pb))
    [ 16; 64; 80 ];
  bench_cube_op ~op:"cube_intersect" ~arity:64 ~iters:(scale 20_000)
    ~packed_run:(fun (a, b) -> observe_bool (Option.is_some (Mcx.Logic.Cube.intersect a b)))
    ~naive_run:(fun (a, b) -> observe_bool (Option.is_some (Mcx.Logic.Naive.intersect a b)))
    ~check_pair:(fun (a, b) (pa, pb) ->
      opt_cube_agree (Mcx.Logic.Naive.intersect a b) (Mcx.Logic.Cube.intersect pa pb));
  bench_cube_op ~op:"cube_cofactor_wrt" ~arity:64 ~iters:(scale 20_000)
    ~packed_run:(fun (a, b) ->
      observe_bool (Option.is_some (Mcx.Logic.Cube.cofactor_wrt a b)))
    ~naive_run:(fun (a, b) ->
      observe_bool (Option.is_some (Mcx.Logic.Naive.cofactor_wrt a b)))
    ~check_pair:(fun (a, b) (pa, pb) ->
      opt_cube_agree (Mcx.Logic.Naive.cofactor_wrt a b) (Mcx.Logic.Cube.cofactor_wrt pa pb))

(* ------------------------------------------------------------------ *)
(* Cover containment                                                   *)
(* ------------------------------------------------------------------ *)

let bench_cover_containment () =
  let arity = 64 and n_cubes = 48 in
  let prng = prng_for "containment" in
  let cubes =
    List.init n_cubes (fun _ -> random_lits prng ~arity ~absent_bias:0.6)
  in
  let cover = Mcx.Logic.Cover.create ~arity (List.map Mcx.Logic.Naive.of_cube cubes) in
  record ~op:"cover_containment" ~n:arity ~iters:(scale 2_000) ~ops:1
    ~self_check:(fun () ->
      let expected =
        List.map Mcx.Logic.Naive.of_cube (Mcx.Logic.Naive.single_cube_containment cubes)
      in
      let got = Mcx.Logic.Cover.cubes (Mcx.Logic.Cover.single_cube_containment cover) in
      List.length expected = List.length got
      && List.for_all2 Mcx.Logic.Cube.equal expected got)
    ~packed:(fun () ->
      observe_int
        (Mcx.Logic.Cover.size (Mcx.Logic.Cover.single_cube_containment cover)))
    ~reference:(fun () ->
      observe_int (List.length (Mcx.Logic.Naive.single_cube_containment cubes)))

let bench_cover_eval () =
  let arity = 64 and n_cubes = 48 in
  let prng = prng_for "cover_eval" in
  let cubes = List.init n_cubes (fun _ -> random_lits prng ~arity ~absent_bias:0.5) in
  let cover = Mcx.Logic.Cover.create ~arity (List.map Mcx.Logic.Naive.of_cube cubes) in
  let assignments =
    Array.init 64 (fun _ -> Array.init arity (fun _ -> Mcx.Util.Prng.bool prng))
  in
  record ~op:"cover_eval" ~n:arity ~iters:(scale 2_000) ~ops:(Array.length assignments)
    ~self_check:(fun () ->
      Array.for_all
        (fun v -> Mcx.Logic.Naive.cover_eval cubes v = Mcx.Logic.Cover.eval cover v)
        assignments)
    ~packed:(fun () ->
      Array.iter (fun v -> observe_bool (Mcx.Logic.Cover.eval cover v)) assignments)
    ~reference:(fun () ->
      Array.iter (fun v -> observe_bool (Mcx.Logic.Naive.cover_eval cubes v)) assignments)

(* ------------------------------------------------------------------ *)
(* Bmatrix kernels                                                     *)
(* ------------------------------------------------------------------ *)

let random_bool_matrix prng ~rows ~cols ~density =
  Array.init rows (fun _ -> Array.init cols (fun _ -> Mcx.Util.Prng.bernoulli prng density))

let bench_bmatrix () =
  let n = 64 in
  let prng = prng_for "bmatrix" in
  (* a dense superset pair so is_submatrix scans deep instead of failing on
     the first cell *)
  let sup = random_bool_matrix prng ~rows:n ~cols:n ~density:0.7 in
  let sub =
    Array.map (Array.map (fun v -> v && Mcx.Util.Prng.bernoulli prng 0.95)) sup
  in
  let a = random_bool_matrix prng ~rows:n ~cols:n ~density:0.5 in
  let psub = Mcx.Logic.Naive.of_bmatrix sub
  and psup = Mcx.Logic.Naive.of_bmatrix sup
  and pa = Mcx.Logic.Naive.of_bmatrix a in
  record ~op:"bmatrix_is_submatrix" ~n ~iters:(scale 20_000) ~ops:1
    ~self_check:(fun () ->
      Mcx.Logic.Naive.is_submatrix sub sup = Mcx.Util.Bmatrix.is_submatrix psub psup
      && Mcx.Logic.Naive.is_submatrix a sup = Mcx.Util.Bmatrix.is_submatrix pa psup)
    ~packed:(fun () -> observe_bool (Mcx.Util.Bmatrix.is_submatrix psub psup))
    ~reference:(fun () -> observe_bool (Mcx.Logic.Naive.is_submatrix sub sup));
  record ~op:"bmatrix_row_subset" ~n ~iters:(scale 2_000) ~ops:n
    ~self_check:(fun () ->
      let ok = ref true in
      for i = 0 to n - 1 do
        if
          Mcx.Logic.Naive.row_subset sub i sup i
          <> Mcx.Util.Bmatrix.row_subset psub i psup i
        then ok := false
      done;
      !ok)
    ~packed:(fun () ->
      for i = 0 to n - 1 do
        observe_bool (Mcx.Util.Bmatrix.row_subset psub i psup i)
      done)
    ~reference:(fun () ->
      for i = 0 to n - 1 do
        observe_bool (Mcx.Logic.Naive.row_subset sub i sup i)
      done);
  record ~op:"bmatrix_row_diff_count" ~n ~iters:(scale 2_000) ~ops:n
    ~self_check:(fun () ->
      let ok = ref true in
      for i = 0 to n - 1 do
        if
          Mcx.Logic.Naive.row_diff_count a i sup i
          <> Mcx.Util.Bmatrix.row_diff_count pa i psup i
        then ok := false
      done;
      !ok)
    ~packed:(fun () ->
      for i = 0 to n - 1 do
        observe_int (Mcx.Util.Bmatrix.row_diff_count pa i psup i)
      done)
    ~reference:(fun () ->
      for i = 0 to n - 1 do
        observe_int (Mcx.Logic.Naive.row_diff_count a i sup i)
      done)

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_of_results rs =
  let open Mcx.Util.Json_out in
  (* two-decimal rounding, as the old hand-rolled %.2f emitter printed *)
  let centi f = Float (Float.round (f *. 100.) /. 100.) in
  Obj
    [
      ("schema", Str "mcx-bench-kernels/1");
      ("word_bits", Int Mcx.Util.Bits.word_bits);
      ("smoke", Bool smoke);
      ( "results",
        List
          (List.map
             (fun r ->
               Obj
                 [
                   ("op", Str r.op);
                   ("n", Int r.n);
                   ("iterations", Int r.iterations);
                   ("packed_ns_per_op", centi r.packed_ns);
                   ("reference_ns_per_op", centi r.reference_ns);
                   ("speedup", centi (r.reference_ns /. r.packed_ns));
                 ])
             rs) );
    ]

let () =
  bench_cubes ();
  bench_cover_containment ();
  bench_cover_eval ();
  bench_bmatrix ();
  let rs = List.rev !results in
  Printf.printf "%-24s %5s %14s %14s %9s\n" "op" "n" "packed ns/op" "ref ns/op" "speedup";
  List.iter
    (fun r ->
      Printf.printf "%-24s %5d %14.2f %14.2f %8.2fx\n" r.op r.n r.packed_ns r.reference_ns
        (r.reference_ns /. r.packed_ns))
    rs;
  Mcx.Util.Json_out.write_file out_path (json_of_results rs);
  Printf.printf "json written to %s (sink %d)\n" out_path (!sink land 1);
  if !mismatches > 0 then begin
    Printf.eprintf "%d self-check failure(s)\n%!" !mismatches;
    exit 1
  end
