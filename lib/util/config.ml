(* The six MCX_* knobs. The order of [errors] below is the declaration
   order of the interface and of the README's knob table. *)

exception Invalid of { knob : string; value : string; expected : string }

let () =
  Printexc.register_printer (function
    | Invalid { knob; value; expected } ->
      Some (Printf.sprintf "invalid %s=%S (expected %s)" knob value expected)
    | _ -> None)

(* The single Sys.getenv site the raw-env-read rule allows. A set but
   empty (or whitespace-only) variable counts as unset, so harnesses
   can clear a knob with [Unix.putenv name ""]. *)
let read ~knob ~expected parse =
  match Sys.getenv_opt knob with
  | None -> None
  | Some s -> (
    let value = String.trim s in
    if String.equal value "" then None
    else
      match parse value with
      | Some v -> Some v
      | None -> raise (Invalid { knob; value; expected }))

let int_at_least min s =
  match int_of_string_opt s with Some n when n >= min -> Some n | Some _ | None -> None

let bool_of_string s =
  match String.lowercase_ascii s with
  | "1" | "true" -> Some true
  | "0" | "false" -> Some false
  | _ -> None

let jobs () =
  read ~knob:"MCX_JOBS" ~expected:"a positive integer (worker domains; clamped to 64)"
    (int_at_least 1)

let jobs_resolved () =
  let n = match jobs () with Some n -> n | None -> Domain.recommended_domain_count () in
  max 1 (min 64 n)

let trace () = read ~knob:"MCX_TRACE" ~expected:"a file path" Option.some

let trace_times () =
  Option.value ~default:true
    (read ~knob:"MCX_TRACE_TIMES" ~expected:"0, 1, true or false" bool_of_string)

let cache_size () =
  Option.value ~default:512
    (read ~knob:"MCX_CACHE_SIZE" ~expected:"a non-negative integer (cache entries; 0 disables)"
       (int_at_least 0))

let samples () =
  read ~knob:"MCX_SAMPLES" ~expected:"a positive integer (Monte Carlo samples)"
    (int_at_least 1)

let golden_regen () = read ~knob:"MCX_GOLDEN_REGEN" ~expected:"a directory path" Option.some

type error = { knob : string; value : string; expected : string }

let errors () =
  List.filter_map
    (fun check ->
      match check () with
      | () -> None
      | exception Invalid { knob; value; expected } -> Some { knob; value; expected })
    [
      (fun () -> ignore (jobs ()));
      (fun () -> ignore (trace ()));
      (fun () -> ignore (trace_times ()));
      (fun () -> ignore (cache_size ()));
      (fun () -> ignore (samples ()));
      (fun () -> ignore (golden_regen ()));
    ]
