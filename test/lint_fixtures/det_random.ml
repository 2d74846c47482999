(* determinism-random: expected at lines 3, 5 and 7. In lib code an
   allow attribute does not suppress it: Prng is the only sanctioned site. *)
let roll () = Random.int 6

let suppressed () = (Random.int 6 [@mcx.lint.allow "determinism-random"])

let opened () = let open Random in bits ()
