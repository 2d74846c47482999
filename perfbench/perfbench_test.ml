(* Tests of the benchmark's own machinery: exact order statistics and the
   independent output checks. *)

open Perfbench
module Bmatrix = Mcx.Util.Bmatrix
module Mo_cover = Mcx.Logic.Mo_cover
module Tt = Check.Tt

let failures = ref 0

let expect name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL: %s\n" name
  end

let test_percentiles () =
  let p = Harness.percentile [| 7.; 1.; 5.; 3.; 9.; 2.; 8.; 4.; 6.; 10. |] in
  expect "p0 is the minimum" (p 0. = 1.);
  expect "p50 is the 5th of 10" (p 0.5 = 5.);
  expect "p90 is the 9th of 10" (p 0.9 = 9.);
  expect "p100 is the maximum" (p 1. = 10.);
  (* One slow outlier among fast samples: every percentile is a sample,
     so none can pass the maximum. *)
  let q = Harness.percentile [| 26.38; 0.4; 0.5; 0.3; 0.45 |] in
  expect "min <= p50 <= p90 <= max" (q 0. <= q 0.5 && q 0.5 <= q 0.9 && q 0.9 <= q 1.);
  expect "p50 of 5 is the 3rd" (q 0.5 = 0.45);
  expect "p90 of 5 is the maximum" (q 0.9 = 26.38);
  expect "p90 of 30 is the 27th" (Harness.percentile (Array.init 30 float_of_int) 0.9 = 26.);
  expect "single sample" (Harness.percentile [| 3.5 |] 0.9 = 3.5);
  expect "no samples is an error"
    (match Harness.percentile [||] 0.5 with _ -> false | exception Invalid_argument _ -> true)

(* Set-up samples start from the state the sampler was created in, as
   set-up that fills memo tables must be timed cold. *)
let test_sampler () =
  let state = ref 1 in
  let sample, stop = Harness.sampler (fun () -> float_of_int !state) in
  state := 2;
  let first = sample () in
  let second = sample () in
  stop ();
  expect "sampler runs from the state at its creation" (first = 1. && second = 1.)

let test_assignments () =
  (* FM row 0 needs columns 0 and 2, row 1 needs column 1. *)
  let required = Check.required_columns (Bmatrix.of_int_lists [ [ 1; 0; 1 ]; [ 0; 1; 0 ] ]) in
  let functional =
    Check.functional_of_cm (Bmatrix.of_int_lists [ [ 1; 1; 0 ]; [ 1; 0; 1 ]; [ 0; 1; 1 ] ])
  in
  let problem a = Check.assignment_problem ~required ~functional a in
  expect "valid assignment" (Option.is_none (problem [| 1; 0 |]));
  expect "defective junction" (Option.is_some (problem [| 0; 2 |]));
  expect "shared crossbar row" (Option.is_some (problem [| 1; 1 |]));
  expect "out of range" (Option.is_some (problem [| 1; 3 |]));
  expect "wrong length" (Option.is_some (problem [| 1 |]));
  (* Row 0 fits both crossbar rows, row 1 only the first: matching row 0
     first-fit blocks row 1 until an augmenting path moves it. *)
  let required = Check.required_columns (Bmatrix.of_int_lists [ [ 1; 0 ]; [ 1; 1 ] ]) in
  let functional = Check.functional_of_cm (Bmatrix.of_int_lists [ [ 1; 1 ]; [ 1; 0 ] ]) in
  expect "augmenting path" (Check.assignment_exists ~required ~functional);
  let required = Check.required_columns (Bmatrix.of_int_lists [ [ 1; 1 ]; [ 1; 1 ] ]) in
  expect "infeasible" (not (Check.assignment_exists ~required ~functional))

let agrees_with_eval cover tables =
  let n = Mo_cover.n_inputs cover in
  List.for_all
    (fun v ->
      let out = Mo_cover.eval cover (Array.init n (fun i -> (v lsr i) land 1 = 1)) in
      Array.for_all Fun.id (Array.mapi (fun k t -> Bool.equal (Tt.get t v) out.(k)) tables))
    (List.init (1 lsl n) Fun.id)

let test_designs () =
  List.iter
    (fun (name, cover) ->
      let reference = Check.cover_tables cover in
      expect (name ^ ": tables agree with Mo_cover.eval") (agrees_with_eval cover reference);
      let layout, _, dual = Mcx.synthesize_two_level cover in
      let expected = if dual then Array.map Tt.not_ reference else reference in
      expect (name ^ ": two-level design")
        (Check.tables_equal (Check.two_level_tables layout) expected);
      let ml, _ = Mcx.synthesize_multi_level cover in
      expect (name ^ ": multi-level design")
        (match Check.multi_level_tables ml with
        | Ok tables -> Check.tables_equal tables reference
        | Error _ -> false))
    [
      ("3 inputs", Mo_cover.of_covers [ Mcx.Logic.Cover.of_strings [ "11-"; "-01" ] ]);
      ("rd53", Mcx.Benchmarks.Arith.rd53 ());
      ("inc", Mcx.Benchmarks.Arith.inc ());
    ];
  (* Dropping one literal junction of a prime product changes the
     function, and the evaluator must notice. *)
  let cover = Mcx.Benchmarks.Arith.rd53 () in
  let layout = Mcx.Crossbar.Layout.of_cover cover in
  let program = Bmatrix.copy layout.Mcx.Crossbar.Layout.program in
  let c =
    List.find (Bmatrix.get program 0) (List.init (2 * Mo_cover.n_inputs cover) Fun.id)
  in
  Bmatrix.set program 0 c false;
  expect "a missing junction is caught"
    (not
       (Check.tables_equal
          (Check.two_level_tables { layout with Mcx.Crossbar.Layout.program = program })
          (Check.cover_tables cover)))

let () =
  test_percentiles ();
  test_sampler ();
  test_assignments ();
  test_designs ();
  if !failures > 0 then exit 1;
  print_endline "perfbench tests: ok"
