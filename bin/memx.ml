(* memx — command-line front end for the memristive-crossbar synthesis and
   defect-tolerance library.

   Sub-commands:
     synth      cost a PLA (or named benchmark) two-level and multi-level
     map        defect-tolerant mapping on a randomly defective crossbar
     sim        evaluate a function on the simulated crossbar
     export     write the multi-level NAND netlist (Verilog/DOT) or the PLA
     show       render the programmed crossbar as ASCII art
     bench      list the built-in benchmark suite
     serve      answer a JSONL stream of mapping requests (cached, batched)
     report     summarize an access log or a trace file
     experiment regenerate the paper's tables and figures and the extension
                studies (Mcx_experiments.Registry)
     config     show the effective MCX_* knob state (and validate it) *)

open Cmdliner

(* Knob plumbing: every MCX_* read goes through the Config registry, and
   the flags below override the environment by writing flag overrides
   into it. Startup fails hard (exit 2) on a malformed knob instead of
   silently falling back — `memx config` explains the state. *)

let report_invalid ~prefix { Mcx.Util.Config.knob; value; expected } =
  Printf.eprintf "%s: invalid %s=%S (expected %s)\n" prefix knob value expected

let set_flag_or_die name value =
  match Mcx.Util.Config.set_flag name value with
  | () -> ()
  | exception Mcx.Util.Config.Invalid { knob; value; expected } ->
    report_invalid ~prefix:"memx" { Mcx.Util.Config.knob; value; expected };
    exit 2

let config_or_die () =
  match Mcx.Util.Config.errors () with
  | [] -> ()
  | errs ->
    List.iter (report_invalid ~prefix:"memx") errs;
    exit 2

let setup_logs verbosity trace =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level verbosity;
  (match trace with
  | Some path when path <> "" -> set_flag_or_die "MCX_TRACE" path
  | Some _ | None -> ());
  config_or_die ();
  match Mcx.Util.Telemetry.install_from_env () with
  | () -> ()
  | exception Sys_error msg ->
    Printf.eprintf "memx: cannot write the trace: %s\n" msg;
    exit 2

let trace_arg =
  let doc =
    "Record telemetry and write a Chrome trace-event JSON (loadable in Perfetto) to \
     $(docv) at exit; a per-phase summary table goes to stderr so stdout stays \
     byte-comparable. Overrides $(b,MCX_TRACE)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let verbosity =
  let env = Cmd.Env.info "MEMX_VERBOSITY" in
  Term.(const setup_logs $ Logs_cli.level ~env () $ trace_arg)

(* --- shared loading of a function: benchmark name or PLA file --- *)

let load_cover spec =
  if Sys.file_exists spec then begin
    let parsed = Mcx.Logic.Pla.parse_file spec in
    Ok parsed.Mcx.Logic.Pla.cover
  end
  else
    match Mcx.Benchmarks.Suite.find spec with
    | bench -> Ok (Mcx.Benchmarks.Suite.cover bench)
    | exception Not_found ->
      Error
        (Printf.sprintf "%S is neither a PLA file nor a known benchmark (try: memx bench)"
           spec)

let cover_arg =
  let doc = "Function to process: a PLA file path or a built-in benchmark name." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FUNCTION" ~doc)

let seed_arg =
  let doc = "Random seed for defect injection." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

let or_die = function
  | Ok v -> v
  | Error msg ->
    Printf.eprintf "memx: %s\n" msg;
    exit 1

(* --- synth --- *)

let synth_run () spec include_il_row =
  let cover = or_die (load_cover spec) in
  let report kind (r : Mcx.Crossbar.Cost.report) =
    Printf.printf "%-12s %4d x %-4d area %7d  switches %6d  IR %5.1f%%\n" kind
      r.Mcx.Crossbar.Cost.rows r.Mcx.Crossbar.Cost.cols r.Mcx.Crossbar.Cost.area
      r.Mcx.Crossbar.Cost.switches r.Mcx.Crossbar.Cost.inclusion_ratio
  in
  Printf.printf "function: %d inputs, %d outputs, %d products\n"
    (Mcx.Logic.Mo_cover.n_inputs cover)
    (Mcx.Logic.Mo_cover.n_outputs cover)
    (Mcx.Logic.Mo_cover.product_count cover);
  report "two-level" (Mcx.Crossbar.Cost.two_level ~include_il_row cover);
  let _, dual_report, used_dual = Mcx.Crossbar.Cost.dual_choice ~include_il_row cover in
  if used_dual then report "dual (f')" dual_report
  else Printf.printf "dual (f')    not cheaper\n";
  let mapped = Mcx.Netlist.Tech_map.map_mo cover in
  report "multi-level" (Mcx.Crossbar.Cost.multi_level mapped);
  Printf.printf "multi-level: %d NAND gates, %d inner connections, %d levels\n"
    (Mcx.Netlist.Network.gate_count mapped.Mcx.Netlist.Tech_map.network)
    (Mcx.Netlist.Network.inner_connection_count mapped.Mcx.Netlist.Tech_map.network)
    (Mcx.Netlist.Network.levels mapped.Mcx.Netlist.Tech_map.network)

let synth_cmd =
  let include_il =
    Arg.(value & flag & info [ "il-row" ] ~doc:"Count the input-latch row (Fig. 3 model).")
  in
  Cmd.v
    (Cmd.info "synth" ~doc:"Cost a function two-level and multi-level.")
    Term.(const synth_run $ verbosity $ cover_arg $ include_il)

(* --- map --- *)

let map_run () spec rate seed algorithm verify =
  let cover = or_die (load_cover spec) in
  let fm = Mcx.Crossbar.Function_matrix.build cover in
  let geometry = fm.Mcx.Crossbar.Function_matrix.geometry in
  let prng = Mcx.Util.Prng.create seed in
  let defects =
    Mcx.Crossbar.Defect_map.random prng
      ~rows:(Mcx.Crossbar.Geometry.rows geometry)
      ~cols:(Mcx.Crossbar.Geometry.cols geometry)
      ~open_rate:rate ~closed_rate:0.
  in
  Printf.printf "optimum crossbar %d x %d, %d stuck-open defects injected (rate %.1f%%)\n"
    (Mcx.Crossbar.Geometry.rows geometry)
    (Mcx.Crossbar.Geometry.cols geometry)
    (Mcx.Crossbar.Defect_map.count defects Mcx.Crossbar.Junction.Stuck_open)
    (100. *. rate);
  let algorithm = if algorithm = "exact" then Mcx.Exact else Mcx.Hybrid in
  match Mcx.map_defect_tolerant ~algorithm cover defects with
  | None ->
    Printf.printf "no valid mapping found\n";
    exit 3
  | Some layout ->
    Printf.printf "valid mapping found; row assignment:\n  %s\n"
      (String.concat " "
         (Array.to_list
            (Array.mapi (fun i t -> Printf.sprintf "%d->H%d" i t)
               layout.Mcx.Crossbar.Layout.row_assignment)));
    if verify then
      Printf.printf "verification under defects: %s\n"
        (if Mcx.verify ~defects layout then "MATCH" else "MISMATCH")

let map_cmd =
  let rate =
    Arg.(value & opt float 0.10 & info [ "rate" ] ~docv:"P" ~doc:"Stuck-open defect rate.")
  in
  let algorithm =
    Arg.(
      value
      & opt (enum [ ("hybrid", "hybrid"); ("exact", "exact") ]) "hybrid"
      & info [ "algorithm"; "a" ] ~docv:"ALGO" ~doc:"Mapping algorithm (hybrid or exact).")
  in
  let verify =
    Arg.(value & flag & info [ "verify" ] ~doc:"Verify the mapped crossbar symbolically.")
  in
  Cmd.v
    (Cmd.info "map" ~doc:"Defect-tolerant mapping onto a randomly defective crossbar.")
    Term.(const map_run $ verbosity $ cover_arg $ rate $ seed_arg $ algorithm $ verify)

(* --- sim --- *)

let sim_run () spec input_bits =
  let cover = or_die (load_cover spec) in
  let n = Mcx.Logic.Mo_cover.n_inputs cover in
  if String.length input_bits <> n then begin
    Printf.eprintf "memx: input has %d bits, function expects %d\n"
      (String.length input_bits) n;
    exit 1
  end;
  let v =
    Array.init n (fun i ->
        match input_bits.[i] with
        | '0' -> false
        | '1' -> true
        | c ->
          Printf.eprintf "memx: bad input bit %C\n" c;
          exit 1)
  in
  let layout = Mcx.Crossbar.Layout.of_cover cover in
  let out = Mcx.simulate layout v in
  Printf.printf "crossbar outputs: %s\n"
    (String.init (Array.length out) (fun k -> if out.(k) then '1' else '0'));
  let reference = Mcx.Logic.Mo_cover.eval cover v in
  Printf.printf "reference (SOP):  %s\n"
    (String.init (Array.length reference) (fun k -> if reference.(k) then '1' else '0'))

let sim_cmd =
  let input =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"BITS" ~doc:"Input assignment, e.g. 10110 (bit i = variable xi).")
  in
  Cmd.v
    (Cmd.info "sim" ~doc:"Evaluate one input on the simulated crossbar.")
    Term.(const sim_run $ verbosity $ cover_arg $ input)

(* --- export --- *)

let export_run () spec format output =
  let cover = or_die (load_cover spec) in
  let text =
    match format with
    | "verilog" -> Mcx.Netlist.Export.to_verilog (Mcx.Netlist.Tech_map.map_mo cover)
    | "dot" -> Mcx.Netlist.Export.to_dot (Mcx.Netlist.Tech_map.map_mo cover)
    | "pla" -> Mcx.Logic.Pla.to_string cover
    | _ -> assert false
  in
  match output with
  | None -> print_string text
  | Some path ->
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    Printf.printf "written to %s\n" path

let export_cmd =
  let format =
    Arg.(
      value
      & opt (enum [ ("verilog", "verilog"); ("dot", "dot"); ("pla", "pla") ]) "verilog"
      & info [ "format"; "f" ] ~docv:"FMT"
          ~doc:"Output format: verilog (NAND netlist), dot (Graphviz) or pla.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export the multi-level NAND netlist or the PLA.")
    Term.(const export_run $ verbosity $ cover_arg $ format $ output)

(* --- show --- *)

let show_run () spec multilevel rate seed =
  let cover = or_die (load_cover spec) in
  let defects_for rows cols =
    if rate <= 0. then None
    else begin
      let prng = Mcx.Util.Prng.create seed in
      Some (Mcx.Crossbar.Defect_map.random prng ~rows ~cols ~open_rate:rate ~closed_rate:0.)
    end
  in
  if multilevel then begin
    let ml = Mcx.Crossbar.Multilevel.place (Mcx.Netlist.Tech_map.map_mo cover) in
    let defects = defects_for ml.Mcx.Crossbar.Multilevel.physical_rows ml.Mcx.Crossbar.Multilevel.physical_cols in
    print_string (Mcx.Crossbar.Render.multi_level ?defects ml)
  end
  else begin
    let layout = Mcx.Crossbar.Layout.of_cover cover in
    let defects = defects_for layout.Mcx.Crossbar.Layout.physical_rows layout.Mcx.Crossbar.Layout.physical_cols in
    print_string (Mcx.Crossbar.Render.two_level ?defects layout)
  end

let show_cmd =
  let multilevel =
    Arg.(value & flag & info [ "multilevel"; "m" ] ~doc:"Render the multi-level design.")
  in
  let rate =
    Arg.(
      value & opt float 0.
      & info [ "rate" ] ~docv:"P" ~doc:"Overlay random stuck-open defects at this rate.")
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Render the programmed crossbar as ASCII art.")
    Term.(const show_run $ verbosity $ cover_arg $ multilevel $ rate $ seed_arg)

(* --- bench --- *)

let bench_run () =
  let table =
    Mcx.Util.Texttable.create [ "name"; "I"; "O"; "P (ours)"; "source"; "tables" ]
  in
  List.iter
    (fun b ->
      let cover = Mcx.Benchmarks.Suite.cover b in
      Mcx.Util.Texttable.add_row table
        [
          b.Mcx.Benchmarks.Suite.name;
          string_of_int (Mcx.Logic.Mo_cover.n_inputs cover);
          string_of_int (Mcx.Logic.Mo_cover.n_outputs cover);
          string_of_int (Mcx.Logic.Mo_cover.product_count cover);
          (match b.Mcx.Benchmarks.Suite.source with
          | Mcx.Benchmarks.Suite.Arithmetic _ -> "arithmetic"
          | Mcx.Benchmarks.Suite.Synthetic _ -> "synthetic");
          String.concat "+"
            (List.filter
               (fun s -> s <> "")
               [
                 (if b.Mcx.Benchmarks.Suite.in_table1 then "I" else "");
                 (if b.Mcx.Benchmarks.Suite.in_table2 then "II" else "");
               ]);
        ])
    Mcx.Benchmarks.Suite.all;
  print_string (Mcx.Util.Texttable.render table)

let bench_cmd =
  Cmd.v
    (Cmd.info "bench" ~doc:"List the built-in benchmark suite.")
    Term.(const bench_run $ verbosity)

(* --- serve --- *)

let read_batch ic limit =
  let rec loop acc k =
    if k >= limit then List.rev acc
    else
      match input_line ic with
      | line -> if String.trim line = "" then loop acc k else loop (line :: acc) (k + 1)
      | exception End_of_file -> List.rev acc
  in
  loop [] 0

let serve_run () inputs output cache_size batch_size access_log =
  if batch_size <= 0 then begin
    Printf.eprintf "memx: --batch must be positive\n";
    exit 1
  end;
  Option.iter (fun n -> set_flag_or_die "MCX_CACHE_SIZE" (string_of_int n)) cache_size;
  let times = Mcx.Util.Config.trace_times () in
  (* Deterministic projection (times = false) embeds the semantic-only
     digest, so access logs stay byte-identical across job counts; the
     timed projection records the full config digest. *)
  let config_digest = Mcx.Util.Config.digest ~semantic_only:(not times) () in
  let access_out = Option.map open_out access_log in
  let on_access =
    Option.map
      (fun oc record ->
        output_string oc
          (Mcx_service.Access_log.to_line ~config:config_digest ~times record);
        output_char oc '\n')
      access_out
  in
  let server = Mcx_service.Serve.create ?on_access () in
  let out, close_output =
    match output with
    | None -> (stdout, fun () -> flush stdout)
    | Some path ->
      let oc = open_out path in
      (oc, fun () -> close_out oc)
  in
  let emit responses =
    List.iter
      (fun line ->
        output_string out line;
        output_char out '\n')
      responses;
    flush out
  in
  (match inputs with
  | [] ->
    (* stdin streaming mode: serve and answer chunk by chunk, so a
       long-lived pipe gets responses as it goes. *)
    let rec loop k =
      match read_batch stdin batch_size with
      | [] -> ()
      | lines ->
        let responses, _ =
          Mcx_service.Serve.serve_batch server ~label:(Printf.sprintf "stdin#%d" k) lines
        in
        emit responses;
        loop (k + 1)
    in
    loop 0
  | files ->
    List.iter
      (fun path ->
        let ic = open_in path in
        let rec drain acc =
          match input_line ic with
          | line -> drain (if String.trim line = "" then acc else line :: acc)
          | exception End_of_file -> List.rev acc
        in
        let lines = drain [] in
        close_in ic;
        let responses, _ =
          Mcx_service.Serve.serve_batch server ~label:(Filename.basename path) lines
        in
        emit responses)
      files);
  close_output ();
  Option.iter close_out access_out;
  exit (Mcx_service.Serve.exit_code server)

let serve_cmd =
  let inputs =
    Arg.(
      value & opt_all string []
      & info [ "in"; "i" ] ~docv:"FILE"
          ~doc:
            "Request file (JSONL, one mcx-request/1 per line). Repeatable; each file is \
             served as one batch against the shared cache. Without it, requests stream \
             from stdin.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Response file (default: stdout).")
  in
  let cache_size =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-size" ] ~docv:"N"
          ~doc:
            "Result cache capacity in entries (default 512; 0 disables caching). \
             Overrides $(b,MCX_CACHE_SIZE).")
  in
  let batch =
    Arg.(
      value & opt int 256
      & info [ "batch" ] ~docv:"N" ~doc:"Requests per dispatch batch in stdin mode.")
  in
  let access_log =
    Arg.(
      value
      & opt (some string) None
      & info [ "access-log" ] ~docv:"FILE"
          ~doc:
            "Write one mcx-access/1 JSONL record per request to $(docv): source kind, \
             canonical digest, cache outcome, status, response bytes and per-stage \
             durations. MCX_TRACE_TIMES=0 omits the durations, leaving the \
             deterministic projection.")
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Serve defect-tolerant mapping requests from a JSONL stream.")
    Term.(
      const serve_run $ verbosity $ inputs $ output $ cache_size $ batch $ access_log)

(* --- report --- *)

let report_run () access_files trace_file =
  let module Report = Mcx_service.Report in
  if access_files = [] && trace_file = None then begin
    Printf.eprintf "memx report: nothing to report (pass --access or --trace-file)\n";
    exit 1
  end;
  let failed = ref false in
  let render load show path =
    match load path with
    | Error msg ->
      Printf.eprintf "memx report: %s\n" msg;
      failed := true
    | Ok v ->
      Printf.printf "== %s ==\n" path;
      List.iter
        (fun table ->
          print_string (Mcx.Util.Texttable.render table);
          print_newline ())
        (show v)
  in
  List.iter (render Report.load_access Report.access_tables) access_files;
  Option.iter (render Report.load_trace (fun table -> [ table ])) trace_file;
  if !failed then exit 1

let report_cmd =
  let access =
    Arg.(
      value & opt_all string []
      & info [ "access"; "a" ] ~docv:"FILE"
          ~doc:"Summarize an mcx-access/1 access log (repeatable).")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-file"; "t" ] ~docv:"FILE"
          ~doc:
            "Aggregate an mcx-trace/1 Chrome trace by span name ($(b,--trace) is the \
             global record-a-trace flag).")
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Summarize observability files: access logs and traces.")
    Term.(const report_run $ verbosity $ access $ trace)

(* --- experiment --- *)

let write_csv (path, contents) =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let experiment_run () names samples seed =
  (* --samples is the flag spelling of MCX_SAMPLES: route it through the
     registry so the config snapshot records the override. *)
  Option.iter (fun n -> set_flag_or_die "MCX_SAMPLES" (string_of_int n)) samples;
  let samples = Mcx.Util.Config.samples () in
  List.iter
    (fun name ->
      match Mcx.Experiments.Registry.run ?samples ~seed name with
      | { text; csvs } ->
        List.iter write_csv csvs;
        print_string text;
        flush stdout
      | exception e ->
        (* Trials are deterministic and in-process, so a raising one is a
           bug: print no partial table, name the experiment and let the
           exception fail the command (cmdliner prints it, exit 125). *)
        let bt = Printexc.get_raw_backtrace () in
        Printf.eprintf "memx: experiment %s failed\n%!" name;
        Printexc.raise_with_backtrace e bt)
    (List.concat names)

let experiment_cmd =
  let names = Mcx.Experiments.Registry.names in
  let experiment_names =
    Arg.(
      non_empty
      & pos_all (enum (("all", names) :: List.map (fun n -> (n, [ n ])) names)) []
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            ("Experiments to run, in order: " ^ String.concat ", " names
           ^ "; or all of them."))
  in
  let samples =
    Arg.(
      value
      & opt (some int) None
      & info [ "samples" ] ~docv:"N"
          ~doc:
            "Monte Carlo samples (default: paper-scale). Overrides $(b,MCX_SAMPLES).")
  in
  let seed =
    Arg.(value & opt int 2018 & info [ "seed" ] ~docv:"N" ~doc:"Monte Carlo seed.")
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:
         "Run the paper's experiments: print their tables and write their CSVs to the \
          current directory.")
    Term.(
      const experiment_run $ verbosity $ experiment_names $ samples $ seed)

(* --- config --- *)

let config_run json =
  (* Deliberately does not go through [setup_logs]/[config_or_die]: this
     command must *diagnose* a broken environment, so it reports every
     malformed and unknown MCX_* variable (not just the first) before
     exiting 2. *)
  let errs = Mcx.Util.Config.errors () in
  let unknown = Mcx.Util.Config.unknown () in
  List.iter (report_invalid ~prefix:"memx config") errs;
  List.iter
    (fun (name, _value) ->
      Printf.eprintf "memx config: unknown %s (not a registered knob; see memx config --help)\n"
        name)
    unknown;
  if errs <> [] || unknown <> [] then exit 2;
  if json then print_endline (Mcx.Util.Json_out.to_string (Mcx.Util.Config.snapshot ()))
  else begin
    let table =
      Mcx.Util.Texttable.create
        [ "knob"; "type"; "layer"; "semantic"; "provenance"; "value"; "default" ]
    in
    List.iter
      (fun k ->
        Mcx.Util.Texttable.add_row table
          [
            k.Mcx.Util.Config.name;
            k.Mcx.Util.Config.ty;
            k.Mcx.Util.Config.layer;
            (if k.Mcx.Util.Config.semantic then "yes" else "no");
            Mcx.Util.Config.provenance_name k.Mcx.Util.Config.prov;
            Mcx.Util.Json_out.to_string k.Mcx.Util.Config.value;
            Mcx.Util.Json_out.to_string k.Mcx.Util.Config.default;
          ])
      (Mcx.Util.Config.knobs ());
    print_string (Mcx.Util.Texttable.render table);
    Printf.printf "digest: %s (semantic-only: %s)\n" (Mcx.Util.Config.digest ())
      (Mcx.Util.Config.digest ~semantic_only:true ())
  end

let config_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the canonical mcx-config/1 snapshot instead of a table.")
  in
  Cmd.v
    (Cmd.info "config"
       ~doc:
         "Show the effective knob configuration: every registered MCX_* variable with \
          its type, layer, provenance (default/env/flag) and value, plus the \
          mcx-config/1 digests embedded in traces and access logs. Exits 2 when the \
          environment carries a malformed or unknown MCX_* variable, naming each \
          offender.")
    Term.(const config_run $ json)

let main =
  Cmd.group
    (Cmd.info "memx" ~version:"1.0.0"
       ~doc:"Logic synthesis and defect tolerance for memristive crossbar arrays.")
    [
      synth_cmd; map_cmd; sim_cmd; export_cmd; show_cmd; bench_cmd; serve_cmd;
      report_cmd; experiment_cmd; config_cmd;
    ]

let () = exit (Cmd.eval main)
