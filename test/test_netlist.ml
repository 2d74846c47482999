open Mcx_netlist
open Mcx_logic

let cover = Cover.of_strings

(* f = x1 + x2 + x3 + x4 + x5 x6 x7 x8 (paper Figs. 3 and 5). *)
let paper_example =
  cover [ "1-------"; "-1------"; "--1-----"; "---1----"; "----1111" ]

(* ------------------------------------------------------------------ *)
(* Signal                                                             *)
(* ------------------------------------------------------------------ *)

let test_signal_polarity () =
  Alcotest.(check bool) "input flips" true
    (Signal.negate_cheaply (Signal.Input 3) = Some (Signal.Input_neg 3));
  Alcotest.(check bool) "const flips" true
    (Signal.negate_cheaply (Signal.Const true) = Some (Signal.Const false));
  Alcotest.(check bool) "gate needs inverter" true
    (let net = Network.create ~n_inputs:2 ~fanin_limit:4 in
     let g = Network.nand net [ Signal.Input 0; Signal.Input 1 ] in
     Signal.negate_cheaply g = None)

let test_signal_of_literal () =
  Alcotest.(check bool) "pos" true
    (Signal.equal (Signal.of_literal ~var:2 Literal.Pos) (Signal.Input 2));
  Alcotest.(check bool) "neg" true
    (Signal.equal (Signal.of_literal ~var:2 Literal.Neg) (Signal.Input_neg 2));
  Alcotest.(check bool) "absent raises" true
    (try
       ignore (Signal.of_literal ~var:0 Literal.Absent);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Network                                                            *)
(* ------------------------------------------------------------------ *)

let test_network_nand_semantics () =
  let net = Network.create ~n_inputs:2 ~fanin_limit:4 in
  let g = Network.nand net [ Signal.Input 0; Signal.Input 1 ] in
  Network.set_outputs net [ g ];
  let check a b expected =
    Alcotest.(check (array bool))
      (Printf.sprintf "nand %b %b" a b)
      [| expected |]
      (Network.eval net [| a; b |])
  in
  check false false true;
  check true false true;
  check false true true;
  check true true false

let test_network_structural_hashing () =
  let net = Network.create ~n_inputs:3 ~fanin_limit:4 in
  let a = Network.nand net [ Signal.Input 0; Signal.Input 1 ] in
  let b = Network.nand net [ Signal.Input 1; Signal.Input 0 ] in
  Alcotest.(check bool) "same gate for same fan-ins" true (Signal.equal a b);
  Alcotest.(check int) "one gate allocated" 1 (Network.gate_count net)

let test_network_constant_folding () =
  let net = Network.create ~n_inputs:2 ~fanin_limit:4 in
  Alcotest.(check bool) "nand with 0 is 1" true
    (Signal.equal
       (Network.nand net [ Signal.Input 0; Signal.Const false ])
       (Signal.Const true));
  Alcotest.(check bool) "nand(x, x') = 1" true
    (Signal.equal
       (Network.nand net [ Signal.Input 0; Signal.Input_neg 0 ])
       (Signal.Const true));
  Alcotest.(check bool) "true inputs drop: nand(1, x) = x'" true
    (Signal.equal
       (Network.nand net [ Signal.Const true; Signal.Input 0 ])
       (Signal.Input_neg 0));
  Alcotest.(check int) "no gates allocated" 0 (Network.gate_count net)

let test_network_inverter_memo () =
  let net = Network.create ~n_inputs:2 ~fanin_limit:4 in
  let g = Network.nand net [ Signal.Input 0; Signal.Input 1 ] in
  let i1 = Network.inv net g and i2 = Network.inv net g in
  Alcotest.(check bool) "inverter shared" true (Signal.equal i1 i2);
  Alcotest.(check int) "two gates total" 2 (Network.gate_count net);
  Alcotest.(check bool) "input inversion free" true
    (Signal.equal (Network.inv net (Signal.Input 1)) (Signal.Input_neg 1));
  Alcotest.(check int) "still two gates" 2 (Network.gate_count net)

let test_network_fanin_decomposition () =
  let net = Network.create ~n_inputs:6 ~fanin_limit:3 in
  let inputs = List.init 6 (fun i -> Signal.Input i) in
  let g = Network.nand net inputs in
  Network.set_outputs net [ g ];
  Alcotest.(check bool) "decomposed into >1 gate" true (Network.gate_count net > 1);
  List.iter
    (fun id ->
      Alcotest.(check bool) "fan-in bound respected" true
        (List.length (Network.gate_fanins net id) <= 3))
    (List.init (Network.gate_count net) Fun.id);
  (* semantics: NAND of 6 inputs *)
  let all_true = Array.make 6 true in
  Alcotest.(check (array bool)) "all true -> false" [| false |] (Network.eval net all_true);
  let one_false = Array.make 6 true in
  one_false.(3) <- false;
  Alcotest.(check (array bool)) "any false -> true" [| true |] (Network.eval net one_false)

let test_network_counts () =
  let net = Network.create ~n_inputs:8 ~fanin_limit:8 in
  let g1 = Network.nand net (List.init 4 (fun i -> Signal.Input (4 + i))) in
  let top =
    Network.nand net (g1 :: List.init 4 (fun i -> Signal.Input_neg i))
  in
  Network.set_outputs net [ top ];
  Alcotest.(check int) "G = 2" 2 (Network.gate_count net);
  Alcotest.(check int) "C = 1" 1 (Network.inner_connection_count net);
  Alcotest.(check int) "total fan-in" 9 (Network.total_fanin net);
  Alcotest.(check int) "levels" 2 (Network.levels net)

let test_network_prune () =
  let net = Network.create ~n_inputs:3 ~fanin_limit:4 in
  let live = Network.nand net [ Signal.Input 0; Signal.Input 1 ] in
  let _dead = Network.nand net [ Signal.Input 1; Signal.Input 2 ] in
  Network.set_outputs net [ live ];
  let pruned = Network.prune net in
  Alcotest.(check int) "dead gate removed" 1 (Network.gate_count pruned);
  Alcotest.(check (array bool)) "semantics preserved" (Network.eval net [| true; true; false |])
    (Network.eval pruned [| true; true; false |])

let test_network_validation () =
  let net = Network.create ~n_inputs:2 ~fanin_limit:4 in
  Alcotest.(check bool) "forged gate rejected" true
    (try
       ignore (Network.nand net [ Signal.Gate { net = -1; id = 5 } ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "input out of range rejected" true
    (try
       ignore (Network.nand net [ Signal.Input 7 ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "fanin_limit < 2 rejected" true
    (try
       ignore (Network.create ~n_inputs:2 ~fanin_limit:1);
       false
     with Invalid_argument _ -> true)

(* A gate signal from network [a] used to slip into network [b] whenever
   its id happened to be in range — it would silently alias [b]'s gate of
   the same id (or memo-hit an unrelated structure). The provenance stamp
   now rejects it even when the id is in range. *)
let test_network_foreign_gate () =
  let a = Network.create ~n_inputs:2 ~fanin_limit:4 in
  let b = Network.create ~n_inputs:2 ~fanin_limit:4 in
  let ga = Network.nand a [ Signal.Input 0; Signal.Input 1 ] in
  (* Give [b] a gate of its own so the foreign id (0) is in range. *)
  let _gb = Network.nand b [ Signal.Input_neg 0; Signal.Input 1 ] in
  let rejects f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "nand rejects foreign gate" true
    (rejects (fun () -> Network.nand b [ ga ]));
  Alcotest.(check bool) "inv rejects foreign gate" true
    (rejects (fun () -> Network.inv b ga));
  Alcotest.(check bool) "set_outputs rejects foreign gate" true
    (rejects (fun () -> Network.set_outputs b [ ga ]));
  (* Pruning re-stamps: signals of the original die with it. *)
  Network.set_outputs a [ ga ];
  let pruned = Network.prune a in
  Alcotest.(check bool) "pre-prune signal rejected by pruned network" true
    (rejects (fun () -> Network.nand pruned [ ga ]));
  (* And the home network still accepts its own signal. *)
  Alcotest.(check bool) "home network still accepts" true
    (match Network.nand a [ ga; Signal.Input 0 ] with
    | _ -> true
    | exception Invalid_argument _ -> false)

(* ------------------------------------------------------------------ *)
(* Factor                                                             *)
(* ------------------------------------------------------------------ *)

let test_factor_shares_literal () =
  (* a b + a c = a (b + c) *)
  let f = cover [ "11-"; "1-1" ] in
  let e = Factor.factor f in
  Alcotest.(check int) "3 literals after factoring" 3 (Factor.literal_count e);
  Alcotest.(check int) "flat has 4" 4 (Factor.literal_count (Factor.of_cover_flat f))

let test_factor_constants () =
  Alcotest.(check bool) "empty cover is false" true
    (Factor.factor (Cover.empty 3) = Factor.Const false);
  Alcotest.(check bool) "universe cube is true" true
    (Factor.factor (Cover.top 3) = Factor.Const true)

let test_factor_eval_matches_cover () =
  let f = cover [ "11--"; "1-1-"; "0--1"; "--11" ] in
  let e = Factor.factor f in
  for idx = 0 to 15 do
    let v = Array.init 4 (fun i -> (idx lsr i) land 1 = 1) in
    Alcotest.(check bool) "factored = flat" (Cover.eval f v) (Factor.eval e v)
  done

let test_factor_depth () =
  Alcotest.(check int) "literal depth 0" 0 (Factor.depth (Factor.Lit (0, true)));
  let f = cover [ "11-"; "1-1" ] in
  Alcotest.(check bool) "factored deeper than 1" true (Factor.depth (Factor.factor f) >= 2)

(* ------------------------------------------------------------------ *)
(* Kernel                                                             *)
(* ------------------------------------------------------------------ *)

let cubes_of rows = List.map Cube.of_string rows

let test_kernel_cube_divide () =
  (* (abc + abd + be) / ab = c + d *)
  let f = cubes_of [ "111--"; "11-1-"; "-1--1" ] in
  let q = Kernel.cube_divide f ~by:(Cube.of_string "11---") in
  Alcotest.(check (list string)) "quotient" [ "--1--"; "---1-" ] (List.map Cube.to_string q)

let test_kernel_divide_multicube () =
  (* f = a c + a d + b c + b d + e = (a + b)(c + d) + e *)
  let f = cubes_of [ "1-1--"; "1--1-"; "-11--"; "-1-1-"; "----1" ] in
  let divisor = cubes_of [ "1----"; "-1---" ] in
  let quotient, remainder = Kernel.divide f ~by:divisor in
  Alcotest.(check (list string)) "quotient c + d" [ "--1--"; "---1-" ]
    (List.map Cube.to_string quotient);
  Alcotest.(check (list string)) "remainder e" [ "----1" ] (List.map Cube.to_string remainder)

let test_kernel_common_cube () =
  let f = cubes_of [ "111--"; "11-1-" ] in
  Alcotest.(check string) "common ab" "11---" (Cube.to_string (Kernel.common_cube f));
  Alcotest.(check bool) "not cube free" false (Kernel.is_cube_free f);
  Alcotest.(check bool) "cube free after division" true
    (Kernel.is_cube_free (Kernel.cube_divide f ~by:(Kernel.common_cube f)))

let test_kernel_enumeration () =
  (* classic: f = ace + bce + de + g; kernels include (a+b), (ace+bce+de+g
     itself), (ac+bc+d) ... *)
  let arity = 7 in
  let f = cubes_of [ "1-1-1--"; "-11-1--"; "---11--"; "------1" ] in
  let ks = Kernel.kernels ~arity f in
  let kernel_strings =
    List.map (fun (_, k) -> List.sort compare (List.map Cube.to_string k)) ks
  in
  (* (a + b) must be found: dividing by c e *)
  Alcotest.(check bool) "a+b is a kernel" true
    (List.mem [ "-1-----"; "1------" ] kernel_strings);
  (* the cube-free expression itself is a kernel *)
  Alcotest.(check bool) "f itself is a kernel" true
    (List.exists (fun k -> List.length k = 4) kernel_strings)

let test_kernel_factor_classic () =
  (* f = ac + ad + bc + bd + e factors to (a+b)(c+d) + e: 5 literals *)
  let f = cover [ "1-1--"; "1--1-"; "-11--"; "-1-1-"; "----1" ] in
  let e = Kernel.factor f in
  Alcotest.(check int) "5 literals after kernel factoring" 5 (Factor.literal_count e);
  for idx = 0 to 31 do
    let v = Array.init 5 (fun i -> (idx lsr i) land 1 = 1) in
    Alcotest.(check bool) "semantics" (Cover.eval f v) (Factor.eval e v)
  done

let test_kernel_factor_beats_quick_sometimes () =
  (* On the classic example quick-factor cannot extract (a+b) as a
     divisor; kernel factoring must not be worse. *)
  let f = cover [ "1-1--"; "1--1-"; "-11--"; "-1-1-"; "----1" ] in
  Alcotest.(check bool) "kernel <= quick literals" true
    (Factor.literal_count (Kernel.factor f) <= Factor.literal_count (Factor.factor f))

(* ------------------------------------------------------------------ *)
(* Tech_map                                                           *)
(* ------------------------------------------------------------------ *)

let test_map_paper_example () =
  (* Fig. 5: 2 NAND gates, 1 multi-level connection. *)
  let mapped = Tech_map.map_cover paper_example in
  Alcotest.(check int) "G = 2" 2 (Network.gate_count mapped.Tech_map.network);
  Alcotest.(check int) "C = 1" 1 (Network.inner_connection_count mapped.Tech_map.network)

let test_map_eval_equals_cover () =
  let f = cover [ "110-"; "1-01"; "0-1-"; "-011" ] in
  let mapped = Tech_map.map_cover f in
  for idx = 0 to 15 do
    let v = Array.init 4 (fun i -> (idx lsr i) land 1 = 1) in
    let out = Tech_map.eval mapped v in
    Alcotest.(check bool) "mapped = cover" (Cover.eval f v) out.(0)
  done

let test_map_flat_eval () =
  let f = cover [ "110-"; "1-01"; "0-1-"; "-011" ] in
  let mapped = Tech_map.map_cover ~strategy:Flat f in
  for idx = 0 to 15 do
    let v = Array.init 4 (fun i -> (idx lsr i) land 1 = 1) in
    let out = Tech_map.eval mapped v in
    Alcotest.(check bool) "flat mapped = cover" (Cover.eval f v) out.(0)
  done

let test_map_constant_functions () =
  let always = Tech_map.map_cover (Cover.top 3) in
  Alcotest.(check (array bool)) "constant true" [| true |]
    (Tech_map.eval always [| false; true; false |]);
  let never = Tech_map.map_cover (Cover.empty 3) in
  Alcotest.(check (array bool)) "constant false" [| false |]
    (Tech_map.eval never [| false; true; false |]);
  Alcotest.(check int) "no gates for constants" 0
    (Network.gate_count never.Tech_map.network)

let test_map_single_literal () =
  let f = cover [ "-1-" ] in
  let mapped = Tech_map.map_cover f in
  Alcotest.(check int) "literal costs no gate" 0 (Network.gate_count mapped.Tech_map.network);
  Alcotest.(check (array bool)) "value" [| true |] (Tech_map.eval mapped [| false; true; false |])

let test_map_mo_sharing () =
  (* Two outputs sharing the product x2 x3: the shared NAND gate must be
     built once. O1 = x1 x2 + x2 x3, O2 = x1 x3 + x2 x3. *)
  let o1 = cover [ "11-"; "-11" ] and o2 = cover [ "1-1"; "-11" ] in
  let mo = Mo_cover.of_covers [ o1; o2 ] in
  let mapped = Tech_map.map_mo mo in
  let g_shared = Network.gate_count mapped.Tech_map.network in
  let separate =
    Network.gate_count (Tech_map.map_cover o1).Tech_map.network
    + Network.gate_count (Tech_map.map_cover o2).Tech_map.network
  in
  Alcotest.(check bool) "sharing does not lose gates" true (g_shared <= separate);
  for idx = 0 to 7 do
    let v = Array.init 3 (fun i -> (idx lsr i) land 1 = 1) in
    Alcotest.(check (array bool)) "mo eval" (Mo_cover.eval mo v) (Tech_map.eval mapped v)
  done

let test_map_fanin_limit_respected () =
  let f = cover [ "111111" ] in
  let mapped = Tech_map.map_cover ~fanin_limit:3 f in
  let net = mapped.Tech_map.network in
  List.iter
    (fun id ->
      Alcotest.(check bool) "bounded" true (List.length (Network.gate_fanins net id) <= 3))
    (List.init (Network.gate_count net) Fun.id);
  Alcotest.(check (array bool)) "value all-ones" [| true |] (Tech_map.eval mapped (Array.make 6 true));
  let v = Array.make 6 true in
  v.(5) <- false;
  Alcotest.(check (array bool)) "value with a zero" [| false |] (Tech_map.eval mapped v)

(* ------------------------------------------------------------------ *)
(* Export                                                             *)
(* ------------------------------------------------------------------ *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_export_verilog () =
  let mapped = Tech_map.map_cover paper_example in
  let v = Export.to_verilog ~module_name:"paper_example" mapped in
  Alcotest.(check bool) "module header" true (contains v "module paper_example");
  Alcotest.(check bool) "has nand primitives" true (contains v "nand (g");
  Alcotest.(check bool) "ends module" true (contains v "endmodule");
  Alcotest.(check bool) "eight inputs declared" true (contains v "input x7;")

let test_export_verilog_names () =
  let mapped = Tech_map.map_cover (cover [ "11"; "0-" ]) in
  let v = Export.to_verilog ~input_names:[ "a"; "b" ] ~output_names:[ "f" ] mapped in
  Alcotest.(check bool) "named ports" true (contains v "input a;" && contains v "output f;");
  Alcotest.(check bool) "wrong arity rejected" true
    (try
       ignore (Export.to_verilog ~input_names:[ "a" ] mapped);
       false
     with Invalid_argument _ -> true)

let test_export_verilog_constant () =
  let mapped = Tech_map.map_cover (Cover.top 2) in
  let v = Export.to_verilog mapped in
  Alcotest.(check bool) "constant output assigned" true (contains v "assign y0 = 1'b1;")

let test_export_dot () =
  let mapped = Tech_map.map_cover paper_example in
  let d = Export.to_dot mapped in
  Alcotest.(check bool) "digraph" true (contains d "digraph");
  Alcotest.(check bool) "gate nodes" true (contains d "g0 [shape=ellipse");
  Alcotest.(check bool) "output node" true (contains d "y0 [shape=doubleoctagon")

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                  *)
(* ------------------------------------------------------------------ *)

let gen_cover ~arity ~max_products =
  QCheck2.Gen.(
    let gen_lit = oneofl [ Literal.Pos; Literal.Neg; Literal.Absent; Literal.Absent ] in
    let gen_cube = array_size (pure arity) gen_lit in
    let* n = int_range 0 max_products in
    let+ cubes = list_size (pure n) gen_cube in
    Cover.create ~arity (List.map Cube.of_literals cubes))

let exhaustive_equal ~arity f g =
  let ok = ref true in
  for idx = 0 to (1 lsl arity) - 1 do
    let v = Array.init arity (fun i -> (idx lsr i) land 1 = 1) in
    if not (Bool.equal (f v) (g v)) then ok := false
  done;
  !ok

let prop_factor_preserves =
  QCheck2.Test.make ~name:"factor preserves semantics" ~count:200
    (gen_cover ~arity:5 ~max_products:8)
    (fun f ->
      let e = Factor.factor f in
      exhaustive_equal ~arity:5 (Cover.eval f) (Factor.eval e))

let prop_map_preserves =
  QCheck2.Test.make ~name:"tech map preserves semantics" ~count:150
    (gen_cover ~arity:5 ~max_products:8)
    (fun f ->
      let mapped = Tech_map.map_cover f in
      exhaustive_equal ~arity:5 (Cover.eval f) (fun v -> (Tech_map.eval mapped v).(0)))

let prop_map_flat_preserves =
  QCheck2.Test.make ~name:"flat map preserves semantics" ~count:150
    (gen_cover ~arity:5 ~max_products:8)
    (fun f ->
      let mapped = Tech_map.map_cover ~strategy:Flat f in
      exhaustive_equal ~arity:5 (Cover.eval f) (fun v -> (Tech_map.eval mapped v).(0)))

let prop_map_small_fanin_preserves =
  QCheck2.Test.make ~name:"fan-in-2 map preserves semantics" ~count:100
    (gen_cover ~arity:5 ~max_products:6)
    (fun f ->
      let mapped = Tech_map.map_cover ~fanin_limit:2 f in
      let net = mapped.Tech_map.network in
      let bounded =
        List.for_all
          (fun id -> List.length (Network.gate_fanins net id) <= 2)
          (List.init (Network.gate_count net) Fun.id)
      in
      bounded
      && exhaustive_equal ~arity:5 (Cover.eval f) (fun v -> (Tech_map.eval mapped v).(0)))

let prop_kernel_factor_preserves =
  QCheck2.Test.make ~name:"kernel factoring preserves semantics" ~count:150
    (gen_cover ~arity:5 ~max_products:8)
    (fun f ->
      let e = Kernel.factor f in
      exhaustive_equal ~arity:5 (Cover.eval f) (Factor.eval e))

let prop_kernel_map_preserves =
  QCheck2.Test.make ~name:"kernel-strategy tech map preserves semantics" ~count:100
    (gen_cover ~arity:5 ~max_products:7)
    (fun f ->
      let mapped = Tech_map.map_cover ~strategy:Tech_map.Kernel f in
      exhaustive_equal ~arity:5 (Cover.eval f) (fun v -> (Tech_map.eval mapped v).(0)))

let prop_kernel_divide_algebraic =
  QCheck2.Test.make ~name:"divide: f = by*q + r algebraically" ~count:200
    (gen_cover ~arity:5 ~max_products:6)
    (fun f ->
      let cubes = Cover.cubes f in
      match cubes with
      | [] -> true
      | first :: _ ->
        (* divide by the first cube's first literal as a 1-cube divisor *)
        (match Cube.literals first with
         | [] -> true
         | (var, lit) :: _ ->
           let d = Cube.set (Cube.universe 5) var lit in
           let quotient, remainder = Kernel.divide cubes ~by:[ d ] in
           let rebuilt =
             List.filter_map (fun q -> Cube.intersect q d) quotient @ remainder
           in
           (* the rebuilt cover must equal f semantically *)
           Cover.equal_semantics f (Cover.create ~arity:5 rebuilt)))

let prop_factored_not_more_literals =
  QCheck2.Test.make ~name:"factoring never adds literals" ~count:200
    (gen_cover ~arity:6 ~max_products:8)
    (fun f ->
      Factor.literal_count (Factor.factor f)
      <= Factor.literal_count (Factor.of_cover_flat f))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_factor_preserves;
      prop_map_preserves;
      prop_map_flat_preserves;
      prop_map_small_fanin_preserves;
      prop_factored_not_more_literals;
      prop_kernel_factor_preserves;
      prop_kernel_map_preserves;
      prop_kernel_divide_algebraic;
    ]

let () =
  Alcotest.run "mcx_netlist"
    [
      ( "signal",
        [
          Alcotest.test_case "polarity" `Quick test_signal_polarity;
          Alcotest.test_case "of_literal" `Quick test_signal_of_literal;
        ] );
      ( "network",
        [
          Alcotest.test_case "nand semantics" `Quick test_network_nand_semantics;
          Alcotest.test_case "structural hashing" `Quick test_network_structural_hashing;
          Alcotest.test_case "constant folding" `Quick test_network_constant_folding;
          Alcotest.test_case "inverter memo" `Quick test_network_inverter_memo;
          Alcotest.test_case "fan-in decomposition" `Quick test_network_fanin_decomposition;
          Alcotest.test_case "counts (paper fig5)" `Quick test_network_counts;
          Alcotest.test_case "prune" `Quick test_network_prune;
          Alcotest.test_case "validation" `Quick test_network_validation;
          Alcotest.test_case "foreign gate rejected" `Quick test_network_foreign_gate;
        ] );
      ( "factor",
        [
          Alcotest.test_case "shares literal" `Quick test_factor_shares_literal;
          Alcotest.test_case "constants" `Quick test_factor_constants;
          Alcotest.test_case "eval matches cover" `Quick test_factor_eval_matches_cover;
          Alcotest.test_case "depth" `Quick test_factor_depth;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "cube divide" `Quick test_kernel_cube_divide;
          Alcotest.test_case "multi-cube divide" `Quick test_kernel_divide_multicube;
          Alcotest.test_case "common cube" `Quick test_kernel_common_cube;
          Alcotest.test_case "enumeration" `Quick test_kernel_enumeration;
          Alcotest.test_case "classic factoring" `Quick test_kernel_factor_classic;
          Alcotest.test_case "kernel vs quick" `Quick test_kernel_factor_beats_quick_sometimes;
        ] );
      ( "tech_map",
        [
          Alcotest.test_case "paper fig5 G/C" `Quick test_map_paper_example;
          Alcotest.test_case "eval equals cover" `Quick test_map_eval_equals_cover;
          Alcotest.test_case "flat eval" `Quick test_map_flat_eval;
          Alcotest.test_case "constants" `Quick test_map_constant_functions;
          Alcotest.test_case "single literal" `Quick test_map_single_literal;
          Alcotest.test_case "multi-output sharing" `Quick test_map_mo_sharing;
          Alcotest.test_case "fan-in limit" `Quick test_map_fanin_limit_respected;
        ] );
      ( "export",
        [
          Alcotest.test_case "verilog" `Quick test_export_verilog;
          Alcotest.test_case "verilog names" `Quick test_export_verilog_names;
          Alcotest.test_case "verilog constant" `Quick test_export_verilog_constant;
          Alcotest.test_case "dot" `Quick test_export_dot;
        ] );
      ("properties", qcheck_cases);
    ]
