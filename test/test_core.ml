(* End-to-end tests of the umbrella API (lib/core). *)

let cover rows = Mcx.Logic.Mo_cover.of_single (Mcx.Logic.Cover.of_strings rows)

let paper_f = cover [ "1-------"; "-1------"; "--1-----"; "---1----"; "----1111" ]

let test_synthesize_two_level () =
  let layout, report, used_dual = Mcx.synthesize_two_level ~dual:false paper_f in
  Alcotest.(check bool) "no dual when disabled" false used_dual;
  Alcotest.(check int) "area (table model)" 108 report.Mcx.Crossbar.Cost.area;
  Alcotest.(check bool) "verifies" true (Mcx.verify layout)

let test_synthesize_two_level_il_row () =
  let _, report, _ = Mcx.synthesize_two_level ~include_il_row:true ~dual:false paper_f in
  Alcotest.(check int) "fig3 area" 126 report.Mcx.Crossbar.Cost.area;
  Alcotest.(check int) "fig3 switches" 31 report.Mcx.Crossbar.Cost.switches

let test_synthesize_two_level_dual () =
  (* f' = single cube; the dual implementation must be chosen. *)
  let f = cover [ "0--"; "-0-"; "--0" ] in
  let layout, report, used_dual = Mcx.synthesize_two_level f in
  Alcotest.(check bool) "dual chosen" true used_dual;
  Alcotest.(check int) "dual area" 16 report.Mcx.Crossbar.Cost.area;
  (* The layout computes the complement; it verifies against its own cover. *)
  Alcotest.(check bool) "verifies" true (Mcx.verify layout)

let test_synthesize_multi_level () =
  let ml, report = Mcx.synthesize_multi_level paper_f in
  Alcotest.(check int) "fig5 area" 57 report.Mcx.Crossbar.Cost.area;
  Alcotest.(check bool) "multi-level computes f" true
    (Mcx.Crossbar.Multilevel.agrees_with_reference ml paper_f)

let test_map_defect_tolerant () =
  let f = cover [ "11-"; "-11"; "1-1" ] in
  let prng = Mcx.Util.Prng.create 31 in
  let mapped = ref 0 in
  for _ = 1 to 40 do
    let defects =
      Mcx.Crossbar.Defect_map.random prng ~rows:4 ~cols:8 ~open_rate:0.1 ~closed_rate:0.
    in
    (match Mcx.map_defect_tolerant ~algorithm:Mcx.Exact f defects with
    | Some layout ->
      incr mapped;
      Alcotest.(check bool) "defective crossbar still computes f" true
        (Mcx.verify ~defects layout)
    | None -> ());
    (* The hybrid result, when present, must also verify. *)
    match Mcx.map_defect_tolerant ~algorithm:Mcx.Hybrid f defects with
    | Some layout ->
      Alcotest.(check bool) "hybrid placement verifies" true (Mcx.verify ~defects layout)
    | None -> ()
  done;
  Alcotest.(check bool) "mapped several samples" true (!mapped > 10)

let test_map_defect_tolerant_dimension_check () =
  let f = cover [ "11-" ] in
  let defects = Mcx.Crossbar.Defect_map.create ~rows:5 ~cols:5 in
  Alcotest.(check bool) "wrong dims rejected" true
    (try
       ignore (Mcx.map_defect_tolerant ~algorithm:Mcx.Exact f defects);
       false
     with Invalid_argument _ -> true)

let test_simulate () =
  let layout, _, _ = Mcx.synthesize_two_level ~dual:false paper_f in
  let v = Array.make 8 false in
  v.(0) <- true;
  Alcotest.(check (array bool)) "x1 -> f=1" [| true |] (Mcx.simulate layout v);
  let zero = Array.make 8 false in
  Alcotest.(check (array bool)) "0 -> f=0" [| false |] (Mcx.simulate layout zero)

(* Verification at widths exhaustive simulation never reached, pristine
   and HBA-mapped on a seeded stuck-open map. Every product of t481's
   stand-in spans all 16 variables, so a physical row with both
   polarities of one variable stuck-open hosts none; a 5% map leaves
   about ten such rows and no optimum-size placement exists, so t481 is
   mapped at 1%. *)
let wide_circuits =
  [ ("table3", 0.05, 1); ("alu4", 0.05, 1); ("t481", 0.01, 21); ("cordic", 0.05, 40) ]

let wide_cover name = Mcx.Benchmarks.Suite.cover (Mcx.Benchmarks.Suite.find name)

let test_verify_wide () =
  List.iter
    (fun (name, open_rate, seed) ->
      let cover = wide_cover name in
      let pristine = Mcx.Crossbar.Layout.of_cover cover in
      Alcotest.(check bool) (name ^ " pristine verifies") true (Mcx.verify pristine);
      let defects =
        Mcx.Crossbar.Defect_map.random (Mcx.Util.Prng.create seed)
          ~rows:pristine.Mcx.Crossbar.Layout.physical_rows
          ~cols:pristine.Mcx.Crossbar.Layout.physical_cols ~open_rate ~closed_rate:0.
      in
      match Mcx.map_defect_tolerant ~algorithm:Mcx.Hybrid cover defects with
      | None -> Alcotest.failf "%s: HBA found no placement" name
      | Some layout ->
        Alcotest.(check bool) (name ^ " mapped verifies under defects") true
          (Mcx.verify ~defects layout))
    wide_circuits

let test_verify_wide_mismatch () =
  let layout = Mcx.Crossbar.Layout.of_cover (wide_cover "cordic") in
  let defects =
    Mcx.Crossbar.Defect_map.create ~rows:layout.Mcx.Crossbar.Layout.physical_rows
      ~cols:layout.Mcx.Crossbar.Layout.physical_cols
  in
  (* the first required switch of the first product row *)
  let rec first_switch c =
    if Mcx.Util.Bmatrix.get layout.Mcx.Crossbar.Layout.program 0 c then c
    else first_switch (c + 1)
  in
  Mcx.Crossbar.Defect_map.set defects 0 (first_switch 0) Mcx.Crossbar.Junction.Stuck_open;
  Alcotest.(check bool) "stuck-open on a required switch breaks cordic" false
    (Mcx.verify ~defects layout)

let test_memx_map_verify_wide () =
  Memx_run.run_memx ~stdout_path:"map_cordic.out" ~stderr_path:"map_cordic.err"
    [ "map"; "cordic"; "--rate"; "0.05"; "--seed"; "40"; "--verify" ];
  let out = Memx_run.read_file "map_cordic.out" in
  Alcotest.(check bool) ("MATCH line in: " ^ out) true
    (Memx_run.contains out "verification under defects: MATCH\n")

let () =
  Alcotest.run "mcx"
    [
      ( "api",
        [
          Alcotest.test_case "two-level synth" `Quick test_synthesize_two_level;
          Alcotest.test_case "two-level + IL row" `Quick test_synthesize_two_level_il_row;
          Alcotest.test_case "dual optimization" `Quick test_synthesize_two_level_dual;
          Alcotest.test_case "multi-level synth" `Quick test_synthesize_multi_level;
          Alcotest.test_case "defect-tolerant mapping" `Quick test_map_defect_tolerant;
          Alcotest.test_case "dimension check" `Quick test_map_defect_tolerant_dimension_check;
          Alcotest.test_case "simulate" `Quick test_simulate;
        ] );
      ( "wide verify",
        [
          Alcotest.test_case "table3 alu4 t481 cordic" `Quick test_verify_wide;
          Alcotest.test_case "cordic mismatch" `Quick test_verify_wide_mismatch;
          Alcotest.test_case "memx map --verify" `Quick test_memx_map_verify_wide;
        ] );
    ]
