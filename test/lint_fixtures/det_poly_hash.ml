(* determinism-poly-hash: expected at lines 3 and 5; the allow attribute
   on line 5 does not suppress it in lib code. *)
let seed_of key = Hashtbl.hash key

let suppressed key = (Hashtbl.hash key [@mcx.lint.allow "determinism-poly-hash"])
