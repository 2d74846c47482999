(* Durable per-trial journal + fault isolation for the sweep engine.

   One JSONL journal per checkpoint directory serves every experiment in
   the process. Lines are self-describing and digest-checked, so the
   journal needs no index, tolerates a torn final line (the write that a
   kill interrupted), and can be shared by heterogeneous sections as
   long as the section string pins down every trial parameter. *)

exception Injected_fault

exception
  Config_mismatch of {
    path : string;
    journal_digest : string;
    current_digest : string;
  }

let () =
  Printexc.register_printer (function
    | Injected_fault -> Some "Checkpoint.Injected_fault (MCX_FAULT_RATE injection)"
    | Config_mismatch { path; journal_digest; current_digest } ->
      Some
        (Printf.sprintf
           "Checkpoint.Config_mismatch: journal %s was written under config digest %s \
            but the current configuration digests to %s; resuming would mix results \
            from two knob states. Re-run with the original MCX_* knobs (memx config \
            shows the current state), or pass --force-resume / MCX_FORCE_RESUME=1 to \
            resume anyway."
           path journal_digest current_digest)
    | _ -> None)

module Codec = struct
  type 'a t = { encode : 'a -> Json_out.t; decode : Json_out.t -> 'a option }

  let bool = { encode = (fun b -> Json_out.Bool b); decode = Json_out.to_bool_opt }
  let int = { encode = (fun i -> Json_out.Int i); decode = Json_out.to_int_opt }
  let float = { encode = (fun f -> Json_out.Float f); decode = Json_out.to_float_opt }
  let string = { encode = (fun s -> Json_out.Str s); decode = Json_out.to_string_opt }

  let ( let* ) = Option.bind

  let pair a b =
    {
      encode = (fun (x, y) -> Json_out.List [ a.encode x; b.encode y ]);
      decode =
        (fun json ->
          match Json_out.to_list_opt json with
          | Some [ x; y ] ->
            let* x = a.decode x in
            let* y = b.decode y in
            Some (x, y)
          | Some _ | None -> None);
    }

  let triple a b c =
    {
      encode = (fun (x, y, z) -> Json_out.List [ a.encode x; b.encode y; c.encode z ]);
      decode =
        (fun json ->
          match Json_out.to_list_opt json with
          | Some [ x; y; z ] ->
            let* x = a.decode x in
            let* y = b.decode y in
            let* z = c.decode z in
            Some (x, y, z)
          | Some _ | None -> None);
    }

  let quad a b c d =
    {
      encode =
        (fun (x, y, z, w) ->
          Json_out.List [ a.encode x; b.encode y; c.encode z; d.encode w ]);
      decode =
        (fun json ->
          match Json_out.to_list_opt json with
          | Some [ x; y; z; w ] ->
            let* x = a.decode x in
            let* y = b.decode y in
            let* z = c.decode z in
            let* w = d.decode w in
            Some (x, y, z, w)
          | Some _ | None -> None);
    }

  let list a =
    {
      encode = (fun xs -> Json_out.List (List.map a.encode xs));
      decode =
        (fun json ->
          let* items = Json_out.to_list_opt json in
          List.fold_right
            (fun item acc ->
              let* acc = acc in
              let* x = a.decode item in
              Some (x :: acc))
            items (Some []));
    }

  let array a =
    let as_list = list a in
    {
      encode = (fun xs -> as_list.encode (Array.to_list xs));
      decode =
        (fun json ->
          let* xs = as_list.decode json in
          Some (Array.of_list xs));
    }

  let option a =
    {
      encode = (function None -> Json_out.Null | Some x -> Json_out.List [ a.encode x ]);
      decode =
        (fun json ->
          match json with
          | Json_out.Null -> Some None
          | Json_out.List [ x ] ->
            let* x = a.decode x in
            Some (Some x)
          | _ -> None);
    }

  let conv to_repr of_repr repr =
    {
      encode = (fun v -> repr.encode (to_repr v));
      decode =
        (fun json ->
          let* r = repr.decode json in
          Some (of_repr r));
    }
end

type failure = {
  experiment : string;
  seed : int;
  section : string;
  trial : int;
  error : string;
  backtrace : string;
}

type journal = {
  dir : string;
  path : string;
  oc : out_channel;
  lock : Mutex.t;
  (* (experiment, seed, section, trial) -> journaled result. Loaded once
     at open; workers add entries under [lock]; lookups happen on the
     main domain between batches, so reads never race writes. *)
  trials : (string, Json_out.t) Hashtbl.t;
}

type t = {
  journal : journal option;
  experiment : string;
  seed : int;
  fault_rate : float;
  fault_key : Prng.Key.t;
}

(* --- process-wide state (guarded by [registry_lock]) ---------------- *)

let registry : (string, journal) Hashtbl.t = Hashtbl.create 4
[@@mcx.lint.allow "domain-toplevel-state"]

let registry_lock = Mutex.create ()
let first_dir = ref None [@@mcx.lint.allow "domain-toplevel-state"]
let handlers_installed = ref false [@@mcx.lint.allow "domain-toplevel-state"]

let failures_lock = Mutex.create ()

(* Newest first; [failures] reverses. *)
let recorded_failures : failure list ref = ref []
[@@mcx.lint.allow "domain-toplevel-state"]

(* 0 = not interrupted; otherwise the OCaml signal number (negative). *)
let interrupted = Atomic.make 0

let os_exit_code signum =
  if signum = Sys.sigint then 128 + 2
  else if signum = Sys.sigterm then 128 + 15
  else 1

let on_signal signum =
  if Atomic.exchange interrupted signum <> 0 then
    (* Second signal: the user is insisting; stop cooperating. *)
    Stdlib.exit (os_exit_code signum)
  else
    prerr_string
      "\n[mcx] signal received: journal is flushed per trial; finishing in-flight \
       trials, skipping the rest...\n"

(* --- journal -------------------------------------------------------- *)

let key ~experiment ~seed ~section ~trial =
  String.concat "\x1f" [ experiment; string_of_int seed; section; string_of_int trial ]

let digest_of result = Digest.to_hex (Digest.string (Json_out.to_string result))

type entry = Header | Trial of string * Json_out.t | Corrupt

let classify line =
  match Json_out.of_string line with
  | Error _ -> Corrupt
  | Ok json -> (
    match Json_out.member "schema" json with
    | Some _ -> Header
    | None -> (
      let field name conv = Option.bind (Json_out.member name json) conv in
      match
        ( field "experiment" Json_out.to_string_opt,
          field "seed" Json_out.to_int_opt,
          field "section" Json_out.to_string_opt,
          field "trial" Json_out.to_int_opt,
          field "digest" Json_out.to_string_opt,
          Json_out.member "result" json )
      with
      | Some experiment, Some seed, Some section, Some trial, Some digest, Some result
        when String.equal (digest_of result) digest ->
        Trial (key ~experiment ~seed ~section ~trial, result)
      | _ -> Corrupt))

(* Returns (loaded, dropped, config digest of the first header that
   carries one). [None] covers a missing file, a journal predating
   config snapshots, and a torn header alike: resume proceeds with a
   warning instead of refusing. *)
let load_into path trials =
  if not (Sys.file_exists path) then (0, 0, None)
  else begin
    let ic = open_in_bin path in
    let loaded = ref 0 and dropped = ref 0 in
    let header_digest = ref None in
    (try
       while true do
         let line = input_line ic in
         if not (String.equal (String.trim line) "") then
           match classify line with
           | Header ->
             if Option.is_none !header_digest then begin
               match Json_out.of_string line with
               | Ok json ->
                 header_digest :=
                   Option.bind (Json_out.member "config" json) (fun config ->
                       Option.bind (Json_out.member "digest" config)
                         Json_out.to_string_opt)
               | Error _ -> ()
             end
           | Trial (k, result) ->
             Hashtbl.replace trials k result;
             incr loaded
           | Corrupt -> incr dropped
       done
     with End_of_file -> ());
    close_in ic;
    (!loaded, !dropped, !header_digest)
  end

let rec mkdir_p path =
  if
    String.equal path "" || String.equal path "." || String.equal path "/"
    || Sys.file_exists path
  then ()
  else begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o777
    with Sys_error _ when Sys.file_exists path -> () (* lost a creation race *)
  end

let header_line () =
  Json_out.to_string
    (Json_out.Obj
       [
         ("schema", Json_out.Str "mcx-journal/1");
         ( "argv",
           Json_out.List
             (Array.to_list (Array.map (fun a -> Json_out.Str a) Sys.argv)) );
         (* The full knob state (operational knobs included): a resumed
            run compares its own digest against this and refuses on a
            mismatch — resuming under different knobs is a correctness
            hazard, not an observability gap. *)
         ("config", Config.snapshot ());
       ])

(* Called with [registry_lock] held. *)
let open_journal_locked dir =
  match Hashtbl.find_opt registry dir with
  | Some j -> j
  | None ->
    Telemetry.span "checkpoint.load" (fun () ->
        mkdir_p dir;
        let path = Filename.concat dir "journal.jsonl" in
        let trials = Hashtbl.create 1024 in
        let loaded, dropped, journal_digest = load_into path trials in
        (* Resume refusal: the journal's recorded config digest must match
           the current one (the full digest, MCX_JOBS included — the
           acceptance case is precisely a jobs=4 journal resumed under
           jobs=1). MCX_FORCE_RESUME / --force-resume overrides with a
           warning; a journal predating config snapshots warns too. *)
        (match journal_digest with
        | Some d ->
          let current = Config.digest () in
          if not (String.equal d current) then
            if Config.force_resume () then begin
              Printf.eprintf
                "[mcx] checkpoint: config digest mismatch at %s (journal %s, current \
                 %s); resuming anyway (--force-resume)\n"
                path d current;
              flush stderr
            end
            else
              raise
                (Config_mismatch { path; journal_digest = d; current_digest = current })
        | None ->
          if loaded > 0 || dropped > 0 then begin
            Printf.eprintf
              "[mcx] checkpoint: journal at %s records no config snapshot; resuming \
               unverified\n"
              path;
            flush stderr
          end);
        let oc =
          open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path
        in
        if loaded = 0 && dropped = 0 && out_channel_length oc = 0 then begin
          output_string oc (header_line ());
          output_char oc '\n';
          flush oc
        end;
        if loaded > 0 || dropped > 0 then begin
          Printf.eprintf "[mcx] checkpoint: %d journaled trial(s) at %s%s\n" loaded
            path
            (if dropped > 0 then
               Printf.sprintf " (%d corrupt line(s) dropped)" dropped
             else "");
          flush stderr
        end;
        if dropped > 0 then
          Telemetry.count ~n:dropped "checkpoint.journal.dropped_lines";
        let j = { dir; path; oc; lock = Mutex.create (); trials } in
        Hashtbl.replace registry dir j;
        if Option.is_none !first_dir then first_dir := Some dir;
        if not !handlers_installed then begin
          handlers_installed := true;
          Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
          Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
        end;
        j)

let open_journal dir =
  Mutex.lock registry_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_lock)
    (fun () -> open_journal_locked dir)

(* MCX_CHECKPOINT selects where (whether) the journal is kept; the swept
   results are journal-invariant (the replay-equality tests). Read
   through the Config registry (the sanctioned boundary). *)
let env_dir () = Config.checkpoint_dir ()

(* MCX_FAULT_RATE turns on fault *injection* for the fault-tolerance
   tests; injected crashes are recorded as failures, never silently
   folded into results. A rate outside [0, 1] is a hard Config.Invalid
   error now, not a silent clamp. *)
let env_fault_rate () = Config.fault_rate ()

let start ?dir ~experiment ~seed () =
  Printexc.record_backtrace true;
  let dir = match dir with Some d -> Some d | None -> env_dir () in
  let fault_rate = env_fault_rate () in
  let journal = Option.map open_journal dir in
  let fault_key = Prng.Key.(string (string (root seed) "mcx-fault") experiment) in
  { journal; experiment; seed; fault_rate; fault_key }

let journal_path t = Option.map (fun j -> j.path) t.journal

(* --- interruption --------------------------------------------------- *)

let exit_if_interrupted t =
  let signum = Atomic.get interrupted in
  if signum <> 0 then begin
    (match t.journal with
    | Some j ->
      Printf.eprintf "[mcx] interrupted: completed trials are journaled at %s\n"
        j.path;
      Printf.eprintf "[mcx] resume with: MCX_CHECKPOINT=%s %s\n"
        (Filename.quote j.dir)
        (String.concat " " (Array.to_list Sys.argv))
    | None -> ());
    flush stderr;
    Stdlib.exit (os_exit_code signum)
  end

(* --- fault injection ------------------------------------------------ *)

let maybe_inject t ~section ~trial =
  if t.fault_rate > 0. then begin
    let k = Prng.Key.(int (string t.fault_key section) trial) in
    if Prng.float (Prng.of_key k) < t.fault_rate then begin
      Telemetry.count "checkpoint.faults.injected";
      raise Injected_fault
    end
  end

(* --- the checkpointed map ------------------------------------------- *)

let record_result t ~section ~trial ~(codec : _ Codec.t) v =
  match t.journal with
  | None -> ()
  | Some j ->
    let result = codec.encode v in
    let line =
      Json_out.to_string
        (Json_out.Obj
           [
             ("experiment", Json_out.Str t.experiment);
             ("seed", Json_out.Int t.seed);
             ("section", Json_out.Str section);
             ("trial", Json_out.Int trial);
             ("digest", Json_out.Str (digest_of result));
             ("result", result);
           ])
    in
    Telemetry.span "checkpoint.append" (fun () ->
        Mutex.lock j.lock;
        output_string j.oc line;
        output_char j.oc '\n';
        flush j.oc;
        Hashtbl.replace j.trials
          (key ~experiment:t.experiment ~seed:t.seed ~section ~trial)
          result;
        Mutex.unlock j.lock)

let record_failure f =
  Mutex.lock failures_lock;
  recorded_failures := f :: !recorded_failures;
  Mutex.unlock failures_lock

let map t ~pool ~section ~n ~(codec : _ Codec.t) f =
  exit_if_interrupted t;
  let results = Array.make n None in
  let todo = ref [] in
  (match t.journal with
  | None ->
    for i = n - 1 downto 0 do
      todo := i :: !todo
    done
  | Some j ->
    for i = n - 1 downto 0 do
      let k = key ~experiment:t.experiment ~seed:t.seed ~section ~trial:i in
      match Hashtbl.find_opt j.trials k with
      | None -> todo := i :: !todo
      | Some json -> (
        (* A decode failure means the codec changed shape since the
           journal was written; degrade to re-running the trial. *)
        match codec.decode json with
        | Some v -> results.(i) <- Some v
        | None -> todo := i :: !todo
        | exception _ -> todo := i :: !todo)
    done);
  let todo = Array.of_list !todo in
  let n_todo = Array.length todo in
  let resumed = n - n_todo in
  if resumed > 0 then Telemetry.count ~n:resumed "checkpoint.trials.resumed";
  if n_todo > 0 then begin
    Telemetry.count ~n:n_todo "checkpoint.trials.run";
    let outcomes =
      Pool.map_isolated pool n_todo (fun k ->
          if Atomic.get interrupted <> 0 then raise Pool.Cancelled;
          let i = todo.(k) in
          maybe_inject t ~section ~trial:i;
          let v = f i in
          record_result t ~section ~trial:i ~codec v;
          v)
    in
    Array.iteri
      (fun k outcome ->
        let i = todo.(k) in
        match outcome with
        | Pool.Done v -> results.(i) <- Some v
        | Pool.Skipped -> ()
        | Pool.Failed { error; backtrace } ->
          Telemetry.count "checkpoint.trials.failed";
          record_failure
            {
              experiment = t.experiment;
              seed = t.seed;
              section;
              trial = i;
              error;
              backtrace;
            })
      outcomes
  end;
  exit_if_interrupted t;
  results

let fold_completed outcomes ~init ~f =
  Array.fold_left
    (fun (acc, completed) outcome ->
      match outcome with
      | Some v -> (f acc v, completed + 1)
      | None -> (acc, completed))
    (init, 0) outcomes

(* --- degradation protocol ------------------------------------------- *)

let failures () =
  Mutex.lock failures_lock;
  let fs = !recorded_failures in
  Mutex.unlock failures_lock;
  List.rev fs

let reset () =
  Mutex.lock failures_lock;
  recorded_failures := [];
  Mutex.unlock failures_lock

let manifest_path () =
  Mutex.lock registry_lock;
  let dir = !first_dir in
  Mutex.unlock registry_lock;
  match dir with
  | Some d -> Filename.concat d "failed-trials.json"
  | None -> "mcx-failed-trials.json"

let manifest_json fs =
  Json_out.Obj
    [
      ("schema", Json_out.Str "mcx-failed-trials/1");
      ("count", Json_out.Int (List.length fs));
      ( "failures",
        Json_out.List
          (List.map
             (fun (f : failure) ->
               Json_out.Obj
                 [
                   ("experiment", Json_out.Str f.experiment);
                   ("seed", Json_out.Int f.seed);
                   ("section", Json_out.Str f.section);
                   ("trial", Json_out.Int f.trial);
                   ("error", Json_out.Str f.error);
                   ("backtrace", Json_out.Str f.backtrace);
                 ])
             fs) );
    ]

let finalize () =
  match failures () with
  | [] -> 0
  | fs ->
    let path = manifest_path () in
    Json_out.write_file path (manifest_json fs);
    Printf.eprintf
      "[mcx] %d trial(s) failed; results above are partial. Manifest: %s\n"
      (List.length fs) path;
    flush stderr;
    4
