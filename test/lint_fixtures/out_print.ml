(* output-print: expected at lines 3, 5 and 9; the allow attribute on
   line 9 does not suppress it in lib code. *)
let greet () = print_endline "hello"

let shout x = Printf.printf "%d\n" x

let fine ppf = Format.pp_print_string ppf "not stdout"

let suppressed () = (print_endline "tolerated" [@mcx.lint.allow "output-print"])
