(* raw-env-read: expected at lines 3, 5, 7, 9, 11, 13 and 15; the allow
   attribute on line 15 does not suppress it in lib code. *)
let direct () = Sys.getenv "MCX_JOBS"

let opt () = Sys.getenv_opt "MCX_SAMPLES"

let via_unix () = Unix.getenv "MCX_TRACE"

let whole () = Unix.environment ()

let pid () = Unix.getpid ()

let cores () = Domain.recommended_domain_count ()

let suppressed () = (Sys.getenv "HOME" [@mcx.lint.allow "raw-env-read"])
