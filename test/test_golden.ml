(* Golden regression test: fixed-seed table2 + fig6 runs, diffed against
   checked-in expected output.  The projection deliberately drops every
   wall-clock field so the comparison is byte-exact: kernel rewrites
   (packed cubes, bit-packed matrices, ...) must not silently change the
   paper numbers.  The simulator-driven entries (fig3, fig5, fig7,
   transient, mldefect) are pinned by their full [memx experiment] text,
   which shows a changed upset-draw order or a changed verdict.

   Regenerating (only when an *intentional* semantic change lands):

     MCX_GOLDEN_REGEN=$PWD/test/golden dune exec test/test_golden.exe
*)

let seed = 2018
let table2_samples = 50
let fig6_samples = 50
let fig6_input_sizes = [ 8; 9; 10 ]

let pool = lazy (Mcx.Util.Pool.default ())

(* Telemetry runs fully enabled (events on) while the projections are
   produced: the byte-compare below doubles as the regression guard that
   instrumentation never perturbs experiment output. *)
let () = Mcx.Util.Telemetry.enable ~events:true ()

let table2_projection () =
  let rows =
    (* every Table II circuit: trial keys are per circuit, so each row is
       independent of which others run *)
    Mcx.Experiments.Table2.run ~pool:(Lazy.force pool) ~samples:table2_samples ~seed ()
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "name,inputs,outputs,products,area,ir,dual,hba_psucc,hba_all_valid,ea_psucc,ea_all_valid\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%d,%d,%d,%.4f,%b,%.4f,%b,%.4f,%b\n"
           r.Mcx.Experiments.Table2.name r.Mcx.Experiments.Table2.inputs
           r.Mcx.Experiments.Table2.outputs r.Mcx.Experiments.Table2.products
           r.Mcx.Experiments.Table2.area r.Mcx.Experiments.Table2.inclusion_ratio
           r.Mcx.Experiments.Table2.dual_used r.Mcx.Experiments.Table2.hba_psucc
           r.Mcx.Experiments.Table2.hba_all_valid r.Mcx.Experiments.Table2.ea_psucc
           r.Mcx.Experiments.Table2.ea_all_valid))
    rows;
  Buffer.contents buf

let fig6_projection () =
  let panels =
    Mcx.Experiments.Fig6.run ~pool:(Lazy.force pool) ~samples:fig6_samples
      ~input_sizes:fig6_input_sizes ~seed ()
  in
  let buf = Buffer.create 4096 in
  List.iter
    (fun panel ->
      Buffer.add_string buf
        (Printf.sprintf "# inputs=%d success_rate=%.4f\n" panel.Mcx.Experiments.Fig6.n_inputs
           panel.Mcx.Experiments.Fig6.success_rate);
      Buffer.add_string buf (Mcx.Experiments.Fig6.series_csv panel))
    panels;
  Buffer.contents buf

(* Registry entries whose text has no wall-clock field, at small sample
   counts; fig3, fig5 and fig7 take none. *)
let registry_text ?samples name () =
  (Mcx.Experiments.Registry.run ~pool:(Lazy.force pool) ?samples ~seed name).text

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let golden_cases =
  [
    ("table2", table2_projection);
    ("fig6", fig6_projection);
    ("fig3", registry_text "fig3");
    ("fig5", registry_text "fig5");
    ("fig7", registry_text "fig7");
    ("transient", registry_text ~samples:40 "transient");
    ("mldefect", registry_text ~samples:8 "mldefect");
  ]

let regen dir =
  List.iter
    (fun (name, project) ->
      let path = Filename.concat dir (name ^ ".golden") in
      write_file path (project ());
      Printf.printf "wrote %s\n%!" path)
    golden_cases

let check name project () =
  let path = Filename.concat "golden" (name ^ ".golden") in
  let expected = read_file path in
  let actual = project () in
  if not (String.equal expected actual) then begin
    (* Dump the mismatch so CI logs show the drift, then fail loudly. *)
    write_file (name ^ ".actual") actual;
    Alcotest.failf
      "%s output drifted from golden file %s (actual written to %s.actual);@ if the \
       change is intentional, regenerate with MCX_GOLDEN_REGEN"
      name path name
  end

let () =
  match Mcx.Util.Config.golden_regen () with
  | Some dir -> regen dir
  | None ->
    Alcotest.run "golden"
      [
        ( "fixed-seed experiments",
          List.map
            (fun (name, project) ->
              Alcotest.test_case (name ^ " byte-identical") `Slow (check name project))
            golden_cases );
      ]
