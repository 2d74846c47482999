(* Checkpoint journal tests: replay (in-memory and from disk), torn-line
   tolerance, deterministic fault injection at any job count, and the
   degradation protocol (failures, manifest, exit code).

   The journal registry is keyed by directory and lives for the whole
   process, so every test works in a fresh temp directory; reloading a
   journal "as a new process would" is simulated by copying the file to a
   directory the registry has never seen. *)

open Mcx_util

let codec = Checkpoint.Codec.int

(* A path that does not exist yet, so [Checkpoint.start] and
   MCX_CHECKPOINT must create the journal directory themselves. *)
let fresh_dir () = Filename.concat (Filename.temp_dir "mcx-ckpt-test-" "") "ckpt"

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

(* Copy [src_dir]'s journal into a brand-new directory, optionally
   transforming the bytes — the moral equivalent of restarting the
   process on a (possibly damaged) journal. *)
let copied_journal ?(transform = Fun.id) src_dir =
  let dst = fresh_dir () in
  Sys.mkdir dst 0o755;
  write_file
    (Filename.concat dst "journal.jsonl")
    (transform (read_file (Filename.concat src_dir "journal.jsonl")));
  dst

let inline_pool () = Pool.create ~jobs:1 ()

(* --- replay ----------------------------------------------------------- *)

let test_replay_in_process () =
  Checkpoint.reset ();
  let dir = fresh_dir () in
  let ckpt = Checkpoint.start ~dir ~experiment:"replay" ~seed:1 () in
  let section = "s n=8" in
  let r1 =
    Checkpoint.map ckpt ~pool:(inline_pool ()) ~section ~n:8 ~codec (fun i -> i * i)
  in
  Alcotest.(check (array (option int)))
    "first run completes"
    (Array.init 8 (fun i -> Some (i * i)))
    r1;
  (* A second start on the same directory must serve every trial from the
     journal: the trial function is never called. *)
  let ckpt2 = Checkpoint.start ~dir ~experiment:"replay" ~seed:1 () in
  let calls = ref 0 in
  let r2 =
    Checkpoint.map ckpt2 ~pool:(inline_pool ()) ~section ~n:8 ~codec (fun i ->
        incr calls;
        i * i)
  in
  Alcotest.(check int) "no trial re-ran" 0 !calls;
  Alcotest.(check (array (option int))) "replay identical" r1 r2

let test_replay_from_disk () =
  Checkpoint.reset ();
  let dir = fresh_dir () in
  let ckpt = Checkpoint.start ~dir ~experiment:"disk" ~seed:9 () in
  let section = "s n=6" in
  let r1 =
    Checkpoint.map ckpt ~pool:(inline_pool ()) ~section ~n:6 ~codec (fun i -> 7 * i)
  in
  let dir2 = copied_journal dir in
  let ckpt2 = Checkpoint.start ~dir:dir2 ~experiment:"disk" ~seed:9 () in
  let calls = ref 0 in
  let r2 =
    Checkpoint.map ckpt2 ~pool:(inline_pool ()) ~section ~n:6 ~codec (fun i ->
        incr calls;
        7 * i)
  in
  Alcotest.(check int) "loaded journal replays all trials" 0 !calls;
  Alcotest.(check (array (option int))) "disk replay identical" r1 r2

let test_section_mismatch_reruns () =
  Checkpoint.reset ();
  let dir = fresh_dir () in
  let ckpt = Checkpoint.start ~dir ~experiment:"sect" ~seed:4 () in
  let (_ : int option array) =
    Checkpoint.map ckpt ~pool:(inline_pool ()) ~section:"samples=4" ~n:4 ~codec Fun.id
  in
  (* A different section string pins different trial parameters: nothing
     may be served from the journal. *)
  let calls = ref 0 in
  let (_ : int option array) =
    Checkpoint.map ckpt ~pool:(inline_pool ()) ~section:"samples=5" ~n:4 ~codec
      (fun i ->
        incr calls;
        i)
  in
  Alcotest.(check int) "all trials re-ran" 4 !calls

(* --- interruption and resume ------------------------------------------ *)

let test_partial_then_resume () =
  Checkpoint.reset ();
  let dir = fresh_dir () in
  let section = "s n=12" in
  let ckpt = Checkpoint.start ~dir ~experiment:"partial" ~seed:2 () in
  (* First run abandons trials >= 5 via Cancelled — the cooperative path a
     SIGINT takes — so the journal holds exactly trials 0..4. *)
  let r1 =
    Checkpoint.map ckpt ~pool:(inline_pool ()) ~section ~n:12 ~codec (fun i ->
        if i >= 5 then raise Pool.Cancelled else i * 3)
  in
  Array.iteri
    (fun i v ->
      Alcotest.(check (option int))
        (Printf.sprintf "trial %d after interrupt" i)
        (if i < 5 then Some (i * 3) else None)
        v)
    r1;
  Alcotest.(check (list string)) "cancellation is not failure" []
    (List.map (fun (f : Checkpoint.failure) -> f.error) (Checkpoint.failures ()));
  (* Resume: only the missing trials run, and the merged result equals an
     uninterrupted run. *)
  let ran = ref [] in
  let r2 =
    Checkpoint.map ckpt ~pool:(inline_pool ()) ~section ~n:12 ~codec (fun i ->
        ran := i :: !ran;
        i * 3)
  in
  Alcotest.(check (list int))
    "only missing trials ran" [ 5; 6; 7; 8; 9; 10; 11 ]
    (List.sort compare !ran);
  Alcotest.(check (array (option int)))
    "resume completes the sweep"
    (Array.init 12 (fun i -> Some (i * 3)))
    r2

let test_torn_line_reruns () =
  Checkpoint.reset ();
  let dir = fresh_dir () in
  let section = "s n=5" in
  let ckpt = Checkpoint.start ~dir ~experiment:"torn" ~seed:3 () in
  let r1 =
    Checkpoint.map ckpt ~pool:(inline_pool ()) ~section ~n:5 ~codec (fun i -> i + 100)
  in
  (* Tear the final journal line mid-write, as a kill would. *)
  let dir2 =
    copied_journal dir ~transform:(fun s -> String.sub s 0 (String.length s - 10))
  in
  let ckpt2 = Checkpoint.start ~dir:dir2 ~experiment:"torn" ~seed:3 () in
  let calls = ref 0 in
  let r2 =
    Checkpoint.map ckpt2 ~pool:(inline_pool ()) ~section ~n:5 ~codec (fun i ->
        incr calls;
        i + 100)
  in
  Alcotest.(check int) "exactly the torn trial re-ran" 1 !calls;
  Alcotest.(check (array (option int))) "result unaffected by the tear" r1 r2

let test_corrupt_digest_reruns () =
  Checkpoint.reset ();
  let dir = fresh_dir () in
  let section = "s n=3" in
  let ckpt = Checkpoint.start ~dir ~experiment:"digest" ~seed:8 () in
  let (_ : int option array) =
    Checkpoint.map ckpt ~pool:(inline_pool ()) ~section ~n:3 ~codec (fun i -> i + 1)
  in
  (* Rewrite every trial line with a digest that no longer matches its
     result: the loader must drop all of them. *)
  let break_digests contents =
    String.split_on_char '\n' contents
    |> List.map (fun line ->
           match Json_out.of_string line with
           | Ok (Json_out.Obj fields)
             when List.mem_assoc "trial" fields ->
             Json_out.to_string
               (Json_out.Obj
                  (List.map
                     (fun (k, v) ->
                       if String.equal k "digest" then (k, Json_out.Str "0000") else (k, v))
                     fields))
           | _ -> line)
    |> String.concat "\n"
  in
  let dir2 = copied_journal dir ~transform:break_digests in
  let ckpt2 = Checkpoint.start ~dir:dir2 ~experiment:"digest" ~seed:8 () in
  let calls = ref 0 in
  let r2 =
    Checkpoint.map ckpt2 ~pool:(inline_pool ()) ~section ~n:3 ~codec (fun i ->
        incr calls;
        i + 1)
  in
  Alcotest.(check int) "all tampered trials re-ran" 3 !calls;
  Alcotest.(check (array (option int)))
    "results rebuilt" [| Some 1; Some 2; Some 3 |] r2

(* --- journal schema ---------------------------------------------------- *)

let test_journal_schema () =
  Checkpoint.reset ();
  let dir = fresh_dir () in
  let ckpt = Checkpoint.start ~dir ~experiment:"schema" ~seed:6 () in
  let (_ : (int * bool) option array) =
    Checkpoint.map ckpt ~pool:(inline_pool ()) ~section:"s" ~n:4
      ~codec:Checkpoint.Codec.(pair int bool)
      (fun i -> (i, i mod 2 = 0))
  in
  (match Checkpoint.journal_path ckpt with
  | None -> Alcotest.fail "journal_path missing with dir set"
  | Some path ->
    let lines =
      read_file path |> String.split_on_char '\n'
      |> List.filter (fun l -> not (String.equal (String.trim l) ""))
    in
    Alcotest.(check int) "header + one line per trial" 5 (List.length lines);
    (match Json_out.of_string (List.hd lines) with
    | Ok header ->
      Alcotest.(check (option string))
        "schema tag" (Some "mcx-journal/1")
        (Option.bind (Json_out.member "schema" header) Json_out.to_string_opt)
    | Error e -> Alcotest.fail ("header does not parse: " ^ e));
    List.iter
      (fun line ->
        match Json_out.of_string line with
        | Error e -> Alcotest.fail ("trial line does not parse: " ^ e)
        | Ok json ->
          List.iter
            (fun field ->
              Alcotest.(check bool)
                (field ^ " present") true
                (Option.is_some (Json_out.member field json)))
            [ "experiment"; "seed"; "section"; "trial"; "digest"; "result" ])
      (List.tl lines))

(* --- fault injection ---------------------------------------------------- *)

(* Outcomes and the set of failed trials must not depend on the job
   count: injection is keyed on (seed, experiment, section, trial), never
   on scheduling. Nothing retries a failed trial, so each injected fault
   is exactly one failure. *)
let test_fault_injection_deterministic () =
  Unix.putenv "MCX_FAULT_RATE" "0.4";
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "MCX_FAULT_RATE" "";
      Telemetry.disable ();
      Telemetry.reset ())
    (fun () ->
      let run jobs =
        Checkpoint.reset ();
        Telemetry.reset ();
        Telemetry.enable ();
        let pool = Pool.create ~jobs () in
        let ckpt = Checkpoint.start ~experiment:"fault" ~seed:7 () in
        let r =
          Checkpoint.map ckpt ~pool ~section:"s n=64" ~n:64 ~codec (fun i -> i)
        in
        Pool.shutdown pool;
        let injected =
          List.assoc_opt "checkpoint.faults.injected"
            (Telemetry.Snapshot.counters (Telemetry.snapshot ()))
        in
        let failed =
          List.sort compare
            (List.map (fun (f : Checkpoint.failure) -> f.trial) (Checkpoint.failures ()))
        in
        Alcotest.(check (option int))
          "one failure per injected fault" (Some (List.length failed)) injected;
        (r, failed)
      in
      let r1, f1 = run 1 in
      let r4, f4 = run 4 in
      Alcotest.(check (array (option int))) "outcomes identical at 1 vs 4 jobs" r1 r4;
      Alcotest.(check (list int)) "failed trials identical" f1 f4;
      Alcotest.(check bool) "injection actually fired" true (f1 <> []);
      Alcotest.(check bool) "some trials survived" true (Array.exists Option.is_some r1);
      List.iter
        (fun (f : Checkpoint.failure) ->
          Alcotest.(check (option int)) "failed trial has no result" None r1.(f.trial);
          Alcotest.(check bool) "error names the injection" true
            (Memx_run.contains f.error "Injected_fault"))
        (Checkpoint.failures ()))

(* --- degradation protocol ---------------------------------------------- *)

let test_finalize_manifest () =
  Checkpoint.reset ();
  let dir = fresh_dir () in
  let ckpt = Checkpoint.start ~dir ~experiment:"degrade" ~seed:5 () in
  let calls = Array.make 6 0 in
  let r =
    Checkpoint.map ckpt ~pool:(inline_pool ()) ~section:"s n=6" ~n:6 ~codec (fun i ->
        calls.(i) <- calls.(i) + 1;
        if i mod 2 = 1 then failwith "boom" else i)
  in
  Alcotest.(check (array int)) "each trial runs once" (Array.make 6 1) calls;
  Array.iteri
    (fun i v ->
      Alcotest.(check (option int))
        (Printf.sprintf "trial %d" i)
        (if i mod 2 = 1 then None else Some i)
        v)
    r;
  let fs = Checkpoint.failures () in
  Alcotest.(check int) "three failures" 3 (List.length fs);
  List.iter
    (fun (f : Checkpoint.failure) ->
      Alcotest.(check bool) "error captured" true (String.length f.error > 0))
    fs;
  Alcotest.(check int) "finalize exits 4" 4 (Checkpoint.finalize ());
  let path = Checkpoint.manifest_path () in
  Alcotest.(check bool) "manifest written" true (Sys.file_exists path);
  (match Json_out.of_string (read_file path) with
  | Error e -> Alcotest.fail ("manifest does not parse: " ^ e)
  | Ok json ->
    Alcotest.(check (option string))
      "manifest schema" (Some "mcx-failed-trials/1")
      (Option.bind (Json_out.member "schema" json) Json_out.to_string_opt);
    Alcotest.(check (option int))
      "manifest count" (Some 3)
      (Option.bind (Json_out.member "count" json) Json_out.to_int_opt));
  Checkpoint.reset ();
  Alcotest.(check int) "clean run finalizes 0" 0 (Checkpoint.finalize ())

(* --- end-to-end: a real experiment, checkpointed ------------------------ *)

let test_experiment_replay_equals_plain () =
  Checkpoint.reset ();
  let dir = fresh_dir () in
  Unix.putenv "MCX_CHECKPOINT" dir;
  Fun.protect
    ~finally:(fun () -> Unix.putenv "MCX_CHECKPOINT" "")
    (fun () ->
      let a = Mcx_experiments.Yield.run ~samples:12 ~seed:5 ~benchmark:"rd53" () in
      (* Second run replays the journal end to end. *)
      let b = Mcx_experiments.Yield.run ~samples:12 ~seed:5 ~benchmark:"rd53" () in
      Unix.putenv "MCX_CHECKPOINT" "";
      let c = Mcx_experiments.Yield.run ~samples:12 ~seed:5 ~benchmark:"rd53" () in
      Alcotest.(check bool) "checkpointed = replayed" true (a = b);
      Alcotest.(check bool) "checkpointed = uncheckpointed" true (a = c))

(* --- end-to-end: memx experiment, checkpointed --------------------------- *)

let yield_args = [ "experiment"; "yield"; "--samples"; "20" ]

let member_string field json = Option.bind (Json_out.member field json) Json_out.to_string_opt

(* A run cut short mid-sweep, made deterministic: a complete journal is
   truncated to its header, the first half of its trial lines and one
   torn line, and the resumed process must print the uninterrupted
   run's stdout byte for byte. *)
let test_memx_resume_cut_journal () =
  let out = fresh_dir () and dir = fresh_dir () in
  Sys.mkdir out 0o755;
  let file name = Filename.concat out name in
  let env = [ "MCX_CHECKPOINT=" ^ dir ] in
  let run ?env name =
    Memx_run.run_memx ?env ~stdout_path:(file (name ^ ".out"))
      ~stderr_path:(file (name ^ ".err")) yield_args;
    read_file (file (name ^ ".out"))
  in
  let plain = run "plain" in
  Alcotest.(check bool) "stdout non-empty" true (String.length plain > 0);
  Alcotest.(check string) "checkpointed run = plain run" plain (run ~env "full");
  let path = Filename.concat dir "journal.jsonl" in
  let journal_lines () =
    String.split_on_char '\n' (read_file path) |> List.filter (( <> ) "")
  in
  match journal_lines () with
  | [] -> Alcotest.fail "empty journal"
  | header :: trials ->
    (match Json_out.of_string header with
    | Error e -> Alcotest.fail ("header does not parse: " ^ e)
    | Ok json ->
      Alcotest.(check (option string)) "journal schema" (Some "mcx-journal/1")
        (member_string "schema" json);
      Alcotest.(check (option string)) "config schema" (Some "mcx-config/1")
        (Option.bind (Json_out.member "config" json) (member_string "schema")));
    List.iter
      (fun line ->
        match Json_out.of_string line with
        | Error e -> Alcotest.fail ("trial line does not parse: " ^ e)
        | Ok json ->
          Alcotest.(check bool) "trial index is an integer" true
            (Option.is_some (Option.bind (Json_out.member "trial" json) Json_out.to_int_opt)))
      trials;
    let half = List.length trials / 2 in
    let next = List.nth trials half in
    write_file path
      (String.concat "\n" (header :: List.filteri (fun i _ -> i < half) trials)
      ^ "\n"
      ^ String.sub next 0 (String.length next / 2));
    Alcotest.(check string) "resumed stdout" plain (run ~env "resumed");
    let err = read_file (file "resumed.err") in
    Alcotest.(check bool) "replayed the kept half" true
      (Memx_run.contains err (Printf.sprintf "%d journaled trial(s)" half));
    Alcotest.(check bool) "dropped the torn line" true
      (Memx_run.contains err "(1 corrupt line(s) dropped)");
    (* Only the missing trials ran: the resume appended one line per
       trial from the torn one on, the first of them onto the torn bytes. *)
    Alcotest.(check int) "journal lines after resume" (1 + List.length trials)
      (List.length (journal_lines ()))

(* Injected faults degrade to partial tables, a failed-trial manifest
   and exit status 4, not an abort. *)
let test_memx_fault_degrades () =
  let dir = fresh_dir () in
  let stdout_path = Filename.temp_file "mcx-fault" ".out" in
  Memx_run.run_memx ~status:4 ~stdout_path ~stderr_path:(stdout_path ^ ".err")
    ~env:
      [ "MCX_CHECKPOINT=" ^ dir; "MCX_FAULT_RATE=0.2"; "MCX_JOBS=2" ]
    [ "experiment"; "yield"; "--samples"; "50" ];
  Alcotest.(check bool) "stdout non-empty" true (String.length (read_file stdout_path) > 0);
  match Json_out.of_string (read_file (Filename.concat dir "failed-trials.json")) with
  | Error e -> Alcotest.fail ("manifest does not parse: " ^ e)
  | Ok json ->
    Alcotest.(check (option string)) "manifest schema" (Some "mcx-failed-trials/1")
      (member_string "schema" json);
    Alcotest.(check bool) "failures recorded" true
      (match Option.bind (Json_out.member "count" json) Json_out.to_int_opt with
      | Some n -> n > 0
      | None -> false)

(* --- Codec round-trips ------------------------------------------------ *)

(* Every combinator must survive the full journal path: encode, render
   to a JSONL line, re-parse, decode. *)
let codec_trip (c : 'a Checkpoint.Codec.t) v =
  match Json_out.of_string (Json_out.to_string (c.Checkpoint.Codec.encode v)) with
  | Error _ -> None
  | Ok json -> c.Checkpoint.Codec.decode json

let gen_finite_float =
  QCheck2.Gen.(map (fun f -> if Float.is_finite f then f else 0.) float)

let gen_opt g = QCheck2.Gen.(oneof [ pure None; map Option.some g ])

let float_bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let prop_codec name gen c eq =
  QCheck2.Test.make ~name ~count:300 gen (fun v ->
      match codec_trip c v with Some w -> eq v w | None -> false)

type trial_repr = { label : string; count : int; ratio : float }

let trial_codec =
  let open Checkpoint.Codec in
  conv
    (fun { label; count; ratio } -> ((label, count), ratio))
    (fun ((label, count), ratio) -> { label; count; ratio })
    (pair (pair string int) float)

module C = Checkpoint.Codec

let codec_qcheck_cases =
  let open QCheck2.Gen in
  let eq = ( = ) in
  List.map QCheck_alcotest.to_alcotest
    [
      prop_codec "codec: bool" bool C.bool eq;
      prop_codec "codec: int" int C.int eq;
      prop_codec "codec: string (all bytes)" string C.string eq;
      prop_codec "codec: float is bit-exact" gen_finite_float C.float float_bits_equal;
      prop_codec "codec: pair" (pair int string) (C.pair C.int C.string) eq;
      prop_codec "codec: triple"
        (map (fun ((a, b), c) -> (a, b, c)) (pair (pair bool int) string))
        (C.triple C.bool C.int C.string)
        eq;
      prop_codec "codec: quad"
        (map (fun ((a, b), (c, d)) -> (a, b, c, d)) (pair (pair int bool) (pair string int)))
        (C.quad C.int C.bool C.string C.int)
        eq;
      prop_codec "codec: list" (list_size (int_range 0 20) int) (C.list C.int) eq;
      prop_codec "codec: array"
        (map Array.of_list (list_size (int_range 0 20) int))
        (C.array C.int) eq;
      prop_codec "codec: option" (gen_opt int) (C.option C.int) eq;
      prop_codec "codec: nested option" (gen_opt (gen_opt int))
        (C.option (C.option C.int))
        eq;
      prop_codec "codec: conv through a record"
        (map
           (fun ((label, count), ratio) -> { label; count; ratio })
           (pair (pair string int) gen_finite_float))
        trial_codec
        (fun a b ->
          String.equal a.label b.label && a.count = b.count
          && float_bits_equal a.ratio b.ratio);
    ]

let test_codec_edges () =
  let open Checkpoint.Codec in
  (* NaN survives (it journals as null); infinities are documented as
     lossy and come back NaN. *)
  (match codec_trip float Float.nan with
  | Some v ->
    Alcotest.(check bool) "nan is bit-exact" true (float_bits_equal v Float.nan)
  | None -> Alcotest.fail "nan must decode");
  (match codec_trip float Float.infinity with
  | Some v -> Alcotest.(check bool) "inf degrades to nan" true (Float.is_nan v)
  | None -> Alcotest.fail "inf must decode");
  (* Decoders are total: mismatches yield None, never an exception. *)
  Alcotest.(check bool) "int rejects a string" true
    (int.decode (Json_out.Str "3") = None);
  Alcotest.(check bool) "pair rejects wrong arity" true
    ((pair int int).decode (Json_out.List [ Json_out.Int 1 ]) = None);
  Alcotest.(check bool) "list rejects a scalar" true
    ((list int).decode (Json_out.Int 1) = None);
  Alcotest.(check bool) "list rejects a bad element" true
    ((list int).decode (Json_out.List [ Json_out.Int 1; Json_out.Str "x" ]) = None);
  Alcotest.(check bool) "option distinguishes None" true
    ((option int).decode Json_out.Null = Some None)

let () =
  Alcotest.run "checkpoint"
    [
      ( "replay",
        [
          Alcotest.test_case "in-process replay" `Quick test_replay_in_process;
          Alcotest.test_case "from-disk replay" `Quick test_replay_from_disk;
          Alcotest.test_case "section mismatch re-runs" `Quick test_section_mismatch_reruns;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "partial then resume" `Quick test_partial_then_resume;
          Alcotest.test_case "torn line re-runs" `Quick test_torn_line_reruns;
          Alcotest.test_case "corrupt digest re-runs" `Quick test_corrupt_digest_reruns;
        ] );
      ("schema", [ Alcotest.test_case "journal format" `Quick test_journal_schema ]);
      ( "codec",
        Alcotest.test_case "edge cases" `Quick test_codec_edges :: codec_qcheck_cases );
      ( "faults",
        [
          Alcotest.test_case "deterministic at any job count" `Quick
            test_fault_injection_deterministic;
          Alcotest.test_case "finalize + manifest" `Quick test_finalize_manifest;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "yield replay = plain run" `Quick
            test_experiment_replay_equals_plain;
          Alcotest.test_case "memx resumes a cut journal" `Quick
            test_memx_resume_cut_journal;
          Alcotest.test_case "memx fault injection exits 4" `Quick test_memx_fault_degrades;
        ] );
    ]
