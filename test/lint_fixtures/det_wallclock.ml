(* determinism-wallclock: expected at lines 3, 5 and 7; the allow
   attribute on line 7 does not suppress it in lib code. *)
let now () = Unix.gettimeofday ()

let cpu () = Sys.time ()

let suppressed () = (Unix.gettimeofday () [@mcx.lint.allow "determinism-wallclock"])
