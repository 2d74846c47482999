let memx = "../bin/memx.exe"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.equal (String.sub hay i n) needle || go (i + 1))
  in
  go 0

let name_of kv = match String.index_opt kv '=' with Some i -> String.sub kv 0 i | None -> kv

let memx_env env =
  let overridden kv = List.exists (fun e -> String.equal (name_of e) (name_of kv)) env in
  let defaults =
    List.filter (fun kv -> not (overridden kv)) [ "MCX_JOBS=1"; "MCX_TRACE_TIMES=0" ]
  in
  (* The child inherits the test's environment minus its MCX_* knobs, so
     each run sees exactly the knobs the test names. *)
  (Unix.environment () [@mcx.lint.allow "raw-env-read"])
  |> Array.to_list
  |> List.filter (fun kv -> not (String.starts_with ~prefix:"MCX_" kv))
  |> List.append (env @ defaults)
  |> Array.of_list

let run_memx ?(env = []) ?(stdout_path = "/dev/null") ?(status = 0) ~stderr_path args =
  let flags = [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] in
  let out = Unix.openfile stdout_path flags 0o644 in
  let err = Unix.openfile stderr_path flags 0o644 in
  let pid =
    Unix.create_process_env memx (Array.of_list (memx :: args)) (memx_env env) Unix.stdin out
      err
  in
  Unix.close out;
  Unix.close err;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code when code = status -> ()
  | _ ->
    failwith
      (Printf.sprintf "memx %s did not exit %d: %s" (String.concat " " args) status
         (read_file stderr_path))
