open Mcx_benchmarks
open Mcx_logic

(* ------------------------------------------------------------------ *)
(* Arith                                                              *)
(* ------------------------------------------------------------------ *)

let test_count_ones () =
  Alcotest.(check int) "0" 0 (Arith.count_ones 0);
  Alcotest.(check int) "255" 8 (Arith.count_ones 255);
  Alcotest.(check int) "0b10110" 3 (Arith.count_ones 0b10110)

let check_word_semantics name cover ~n_inputs f =
  (* The minimized cover must compute bit k of [f] for every input word. *)
  for x = 0 to (1 lsl n_inputs) - 1 do
    let v = Array.init n_inputs (fun i -> (x lsr i) land 1 = 1) in
    let out = Mo_cover.eval cover v in
    Array.iteri
      (fun k bit ->
        Alcotest.(check bool)
          (Printf.sprintf "%s x=%d bit %d" name x k)
          ((f x lsr k) land 1 = 1)
          bit)
      out
  done

let test_rd53_semantics () =
  check_word_semantics "rd53" (Arith.rd53 ()) ~n_inputs:5 Arith.count_ones

let test_rd73_semantics () =
  check_word_semantics "rd73" (Arith.rd73 ()) ~n_inputs:7 Arith.count_ones

let test_sqrt8_semantics () =
  let isqrt x =
    let rec go r = if (r + 1) * (r + 1) > x then r else go (r + 1) in
    go 0
  in
  check_word_semantics "sqrt8" (Arith.sqrt8 ()) ~n_inputs:8 isqrt

let test_squar5_semantics () =
  check_word_semantics "squar5" (Arith.squar5 ()) ~n_inputs:5 (fun x -> x * x lsr 2)

let test_inc_semantics () =
  check_word_semantics "inc" (Arith.inc ()) ~n_inputs:7 (fun x -> (3 * x) + 1)

let test_clip_saturates () =
  let cover = Arith.clip () in
  Alcotest.(check int) "9 inputs" 9 (Mo_cover.n_inputs cover);
  Alcotest.(check int) "5 outputs" 5 (Mo_cover.n_outputs cover);
  (* +100 clips to +15; -100 (two's complement) clips to -16. *)
  let eval x =
    let v = Array.init 9 (fun i -> (x lsr i) land 1 = 1) in
    let out = Mo_cover.eval cover v in
    Array.to_list out
    |> List.mapi (fun k b -> if b then 1 lsl k else 0)
    |> List.fold_left ( + ) 0
  in
  Alcotest.(check int) "100 -> 15" 15 (eval 100);
  Alcotest.(check int) "-100 -> -16 (0b10000)" 16 (eval ((-100) land 0x1FF));
  Alcotest.(check int) "7 -> 7" 7 (eval 7)

let test_rd_shapes () =
  let rd53 = Arith.rd53 () and rd84 = Arith.rd84 () in
  Alcotest.(check int) "rd53 I" 5 (Mo_cover.n_inputs rd53);
  Alcotest.(check int) "rd53 O" 3 (Mo_cover.n_outputs rd53);
  Alcotest.(check int) "rd84 I" 8 (Mo_cover.n_inputs rd84);
  Alcotest.(check int) "rd84 O" 4 (Mo_cover.n_outputs rd84);
  (* Product counts should land near the paper's espresso results. *)
  let p53 = Mo_cover.product_count rd53 and p84 = Mo_cover.product_count rd84 in
  Alcotest.(check bool) "rd53 P in [25,40] (paper: 31)" true (p53 >= 25 && p53 <= 40);
  Alcotest.(check bool) "rd84 P in [200,320] (paper: 255)" true (p84 >= 200 && p84 <= 320)

(* ------------------------------------------------------------------ *)
(* Synthetic                                                          *)
(* ------------------------------------------------------------------ *)

let params =
  {
    Synthetic.n_inputs = 10;
    n_outputs = 4;
    n_products = 58;
    inclusion_ratio = 29.;
    seed = "42";
    skew = 0.;
  }

let test_synthetic_shape () =
  let c = Synthetic.generate params in
  Alcotest.(check int) "inputs" 10 (Mo_cover.n_inputs c);
  Alcotest.(check int) "outputs" 4 (Mo_cover.n_outputs c);
  Alcotest.(check int) "products exact" 58 (Mo_cover.product_count c)

let test_synthetic_ir_close () =
  let c = Synthetic.generate params in
  let area = (58 + 4) * ((2 * 10) + (2 * 4)) in
  let switches =
    Mo_cover.literal_count c + Mo_cover.connection_count c + (2 * 4)
  in
  let ir = 100. *. float_of_int switches /. float_of_int area in
  Alcotest.(check bool)
    (Printf.sprintf "IR %.1f within 3 points of 29" ir)
    true
    (Float.abs (ir -. 29.) < 3.)

let test_synthetic_every_output_covered () =
  let c = Synthetic.generate params in
  for k = 0 to 3 do
    Alcotest.(check bool) "output has products" true
      (not (Cover.is_empty (Mo_cover.output_cover c k)))
  done

let test_synthetic_deterministic () =
  let a = Synthetic.generate params and b = Synthetic.generate params in
  Alcotest.(check bool) "same seed, same cover" true (Mo_cover.equal_semantics a b);
  let c = Synthetic.generate { params with seed = "43" } in
  Alcotest.(check bool) "different seed differs somewhere" true
    (Mo_cover.product_count c <> Mo_cover.product_count a
    || Pla.to_string c <> Pla.to_string a)

let test_synthetic_rejects_bad () =
  Alcotest.(check bool) "zero products rejected" true
    (try
       ignore (Synthetic.generate { params with n_products = 0 });
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Suite                                                              *)
(* ------------------------------------------------------------------ *)

let test_suite_membership () =
  Alcotest.(check int) "9 table-1 circuits" 9 (List.length Suite.table1);
  Alcotest.(check int) "16 table-2 circuits" 16 (List.length Suite.table2);
  List.iter
    (fun name ->
      Alcotest.(check string) ("find " ^ name) name (Suite.find name).Suite.name)
    [ "rd53"; "alu4"; "cordic"; "t481"; "exp5" ];
  Alcotest.(check bool) "unknown raises" true
    (try
       ignore (Suite.find "nonesuch");
       false
     with Not_found -> true)

let test_suite_covers_match_specs () =
  List.iter
    (fun b ->
      let c = Suite.cover b in
      Alcotest.(check int) (b.Suite.name ^ " inputs") b.Suite.inputs (Mo_cover.n_inputs c);
      Alcotest.(check int) (b.Suite.name ^ " outputs") b.Suite.outputs (Mo_cover.n_outputs c);
      match b.Suite.source with
      | Suite.Synthetic _ ->
        Alcotest.(check int) (b.Suite.name ^ " products") b.Suite.products
          (Mo_cover.product_count c)
      | Suite.Arithmetic _ -> ())
    Suite.all

let test_suite_memoization () =
  let b = Suite.find "rd53" in
  let c1 = Suite.cover b and c2 = Suite.cover b in
  Alcotest.(check bool) "same physical cover" true (c1 == c2)

let test_suite_negation_rd53 () =
  let b = Suite.find "rd53" in
  let orig = Suite.cover b and neg = Suite.negated_cover b in
  for k = 0 to 2 do
    let f = Mo_cover.output_cover orig k and g = Mo_cover.output_cover neg k in
    Alcotest.(check bool) "union is tautology" true
      (Mcx_logic.Tautology.check (Cover.union f g))
  done

let test_suite_synthetic_negation_stats () =
  let b = Suite.find "misex1" in
  let neg = Suite.negated_cover b in
  Alcotest.(check int) "misex1 negation P' = 46" 46 (Mo_cover.product_count neg)

let test_t481_structure () =
  let f = Arith.t481 () in
  Alcotest.(check int) "256 products" 256 (Mo_cover.product_count f);
  (* f(x) = AND of pairwise XORs. *)
  let eval x =
    let v = Array.init 16 (fun i -> (x lsr i) land 1 = 1) in
    (Mo_cover.eval f v).(0)
  in
  let reference x =
    let ok = ref true in
    for pair = 0 to 7 do
      if ((x lsr (2 * pair)) land 1) = ((x lsr ((2 * pair) + 1)) land 1) then ok := false
    done;
    !ok
  in
  List.iter
    (fun x -> Alcotest.(check bool) (string_of_int x) (reference x) (eval x))
    [ 0; 0xFFFF; 0x5555; 0xAAAA; 0x1234; 0x9999; 21845; 43690 ];
  (* negation: complement on the same points *)
  let neg = Arith.t481_negation () in
  Alcotest.(check int) "negation has 16 products" 16 (Mo_cover.product_count neg);
  List.iter
    (fun x ->
      let v = Array.init 16 (fun i -> (x lsr i) land 1 = 1) in
      Alcotest.(check bool) "complement" (not (reference x)) (Mo_cover.eval neg v).(0))
    [ 0; 0x5555; 0x1234; 12345 ]

let test_cordic_structure () =
  let f = Arith.cordic () in
  Alcotest.(check int) "23 inputs" 23 (Mo_cover.n_inputs f);
  Alcotest.(check int) "2 outputs" 2 (Mo_cover.n_outputs f);
  Alcotest.(check int) "1024 products" 1024 (Mo_cover.product_count f);
  let parity lo v = 
    let p = ref false in
    for i = lo to lo + 9 do
      if v.(i) then p := not !p
    done;
    !p
  in
  let prng = Mcx_util.Prng.create 17 in
  for _ = 1 to 200 do
    let v = Array.init 23 (fun _ -> Mcx_util.Prng.bool prng) in
    let out = Mo_cover.eval f v in
    Alcotest.(check bool) "out0 = parity(0..9)" (parity 0 v) out.(0);
    Alcotest.(check bool) "out1 = parity(13..22)" (parity 13 v) out.(1)
  done

(* The stats-matched synthetic stand-ins (Suite's Synthetic source) hit
   the published I/O/P/IR but not the MCNC functions, and some of their
   outputs are constant true. Table II depends only on the function
   matrix's shape, so its numbers stand; anything semantic on these
   circuits (dual choice, verify, served requests) meets the constants.
   This pins the count per circuit so a generator change shows here. *)
let test_constant_true_outputs () =
  let expected =
    [ ("apex4", 19); ("clip", 4); ("bw", 10); ("exp5", 10); ("ex1010", 1) ]
  in
  List.iter
    (fun b ->
      let cover = Suite.cover b in
      let manager = Bdd.manager ~n_vars:(Mo_cover.n_inputs cover) () in
      let constant =
        Array.fold_left
          (fun n f -> if Bdd.is_true f then n + 1 else n)
          0
          (Bdd.of_mo_cover manager cover)
      in
      let name = b.Suite.name in
      Alcotest.(check int)
        (Printf.sprintf "%s: constant-true outputs of %d" name (Mo_cover.n_outputs cover))
        (Option.value (List.assoc_opt name expected) ~default:0)
        constant)
    Suite.all

let () =
  Alcotest.run "mcx_benchmarks"
    [
      ( "arith",
        [
          Alcotest.test_case "count_ones" `Quick test_count_ones;
          Alcotest.test_case "rd53 semantics" `Quick test_rd53_semantics;
          Alcotest.test_case "rd73 semantics" `Quick test_rd73_semantics;
          Alcotest.test_case "sqrt8 semantics" `Quick test_sqrt8_semantics;
          Alcotest.test_case "squar5 semantics" `Quick test_squar5_semantics;
          Alcotest.test_case "inc semantics" `Quick test_inc_semantics;
          Alcotest.test_case "clip saturates" `Quick test_clip_saturates;
          Alcotest.test_case "rd shapes" `Quick test_rd_shapes;
        ] );
      ( "synthetic",
        [
          Alcotest.test_case "shape" `Quick test_synthetic_shape;
          Alcotest.test_case "IR close to target" `Quick test_synthetic_ir_close;
          Alcotest.test_case "every output covered" `Quick test_synthetic_every_output_covered;
          Alcotest.test_case "deterministic" `Quick test_synthetic_deterministic;
          Alcotest.test_case "rejects bad params" `Quick test_synthetic_rejects_bad;
        ] );
      ( "suite",
        [
          Alcotest.test_case "membership" `Quick test_suite_membership;
          Alcotest.test_case "covers match specs" `Quick test_suite_covers_match_specs;
          Alcotest.test_case "memoization" `Quick test_suite_memoization;
          Alcotest.test_case "rd53 negation exact" `Quick test_suite_negation_rd53;
          Alcotest.test_case "synthetic negation stats" `Quick test_suite_synthetic_negation_stats;
          Alcotest.test_case "t481 structure" `Quick test_t481_structure;
          Alcotest.test_case "cordic structure" `Quick test_cordic_structure;
          Alcotest.test_case "constant-true outputs" `Quick test_constant_true_outputs;
        ] );
    ]
