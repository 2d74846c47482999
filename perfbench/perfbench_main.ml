(* Command-line front end of the repository benchmark; run.sh builds and
   calls it.

     perfbench_main --workload table2|serve|synth --seed N --seconds S
                    --trace 0|1 [--expected-dir DIR]
     perfbench_main --workload W --seed N --record > DIR/W-seedN.txt

   --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones;
   the last stdout line is the JSON result. A seed with a file
   DIR/<workload>-seed<N>.txt must reproduce the outputs recorded there;
   other seeds get the structural checks, and every later period must
   reproduce the outputs of the first. --record prints the
   outputs of one period of operations, one per line. *)

open Perfbench

let workloads = [ ("table2", Table2_wl.make); ("serve", Serve_wl.make); ("synth", Synth_wl.make) ]

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 2)
    fmt

let () =
  let workload = ref "" and seed = ref None and seconds = ref 0 and trace = ref (-1) in
  let expected_dir = ref "" and record = ref false in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME table2, serve or synth");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S step time to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--expected-dir", Arg.Set_string expected_dir, "DIR recorded outputs");
      ("--record", Arg.Set record, " print the outputs of one period of operations");
    ]
  in
  Arg.parse specs
    (fun arg -> raise (Arg.Bad ("unexpected argument " ^ arg)))
    "perfbench_main --workload W --seed N --seconds S --trace 0|1";
  let make_for =
    match List.assoc_opt !workload workloads with
    | Some make -> make
    | None -> fail "unknown workload %S (table2, serve or synth)" !workload
  in
  let seed = match !seed with Some s -> s | None -> fail "--seed is required" in
  let make () = make_for ~seed in
  if !record then exit (if Harness.record ~make then 0 else 1);
  if !seconds < 1 then fail "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  let inst = make () in
  let expected =
    if String.equal !expected_dir "" then None
    else
      Harness.load_expected inst
        (Filename.concat !expected_dir (Printf.sprintf "%s-seed%d.txt" !workload seed))
  in
  if Option.is_none expected then
    Printf.eprintf
      "perfbench: no recorded outputs for %s seed %d; structural checks and repeat agreement only\n%!"
      !workload seed;
  let gate = Harness.gate inst expected in
  let metrics =
    if !trace = 1 then Harness.run_traced ~make gate
    else Harness.run_timed ~make ~seconds:!seconds gate
  in
  Harness.print_result ~correct:(gate.Harness.failed = 0) ~attempted:gate.Harness.attempted
    ~failed:gate.Harness.failed metrics
