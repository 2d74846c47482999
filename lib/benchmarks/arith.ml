open Mcx_logic

let count_ones x =
  let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + (x land 1)) in
  go x 0

(* Build a multi-output cover from a word-level function: output [k] is bit
   [k] of [f input_word]. Each output is minimized independently with QM,
   then the joint multi-output pass maximizes product sharing — on the rd
   family this reproduces the paper's espresso product counts exactly
   (rd53: 31, rd73: 127). *)
let of_word_function ~n_inputs ~n_outputs f =
  let output_table k =
    Truthtable.of_fun_int ~arity:n_inputs (fun x -> (f x lsr k) land 1 = 1)
  in
  Mo_minimize.minimize_joint
    (Mo_cover.of_covers (List.init n_outputs (fun k -> Qm.minimize (output_table k))))

let rd53 () = of_word_function ~n_inputs:5 ~n_outputs:3 count_ones
let rd73 () = of_word_function ~n_inputs:7 ~n_outputs:3 count_ones
let rd84 () = of_word_function ~n_inputs:8 ~n_outputs:4 count_ones

let isqrt x =
  let rec go r = if (r + 1) * (r + 1) > x then r else go (r + 1) in
  go 0

let sqrt8 () = of_word_function ~n_inputs:8 ~n_outputs:4 isqrt

let squar5 () = of_word_function ~n_inputs:5 ~n_outputs:8 (fun x -> x * x lsr 2)

let clip () =
  let f x =
    (* x is a 9-bit two's-complement value. *)
    let signed = if x land 0x100 <> 0 then x - 0x200 else x in
    let clipped = if signed < -16 then -16 else if signed > 15 then 15 else signed in
    clipped land 0x1F
  in
  of_word_function ~n_inputs:9 ~n_outputs:5 f

let inc () = of_word_function ~n_inputs:7 ~n_outputs:9 (fun x -> (3 * x) + 1)

(* The minimal SOP of the (odd or even) parity of [vars]: one full
   product per satisfying polarity pattern — the canonical exponential
   two-level form whose multi-level implementation is tiny. *)
let parity_cover ~arity ~vars ~even =
  let vars = Array.of_list vars in
  let k = Array.length vars in
  let cube_of_pattern bits =
    let lits = Array.make arity Literal.Absent in
    Array.iteri
      (fun i v -> lits.(v) <- (if (bits lsr i) land 1 = 1 then Literal.Pos else Literal.Neg))
      vars;
    Cube.of_literals lits
  in
  let want_parity = if even then 0 else 1 in
  let patterns =
    List.filter (fun bits -> count_ones bits land 1 = want_parity) (List.init (1 lsl k) Fun.id)
  in
  Cover.create ~arity (List.map cube_of_pattern patterns)

(* t481 stand-in: AND over 8 input pairs of (x_{2i} XOR x_{2i+1}). The
   minimal SOP consists of the 2^8 full products picking one satisfying
   polarity per pair. *)
let t481 () =
  let arity = 16 in
  let cube_of_pattern bits =
    let lits = Array.make arity Literal.Absent in
    for pair = 0 to 7 do
      let first_high = (bits lsr pair) land 1 = 1 in
      lits.(2 * pair) <- (if first_high then Literal.Pos else Literal.Neg);
      lits.((2 * pair) + 1) <- (if first_high then Literal.Neg else Literal.Pos)
    done;
    Cube.of_literals lits
  in
  Mo_cover.of_single
    (Cover.create ~arity (List.map cube_of_pattern (List.init 256 Fun.id)))

let t481_negation () =
  let arity = 16 in
  let xnor_products pair =
    let equal_cube polarity =
      let lits = Array.make arity Literal.Absent in
      let lit = if polarity then Literal.Pos else Literal.Neg in
      lits.(2 * pair) <- lit;
      lits.((2 * pair) + 1) <- lit;
      Cube.of_literals lits
    in
    [ equal_cube true; equal_cube false ]
  in
  Mo_cover.of_single
    (Cover.create ~arity (List.concat_map xnor_products (List.init 8 Fun.id)))

let cordic_vars_a = List.init 10 Fun.id
let cordic_vars_b = List.init 10 (fun i -> 13 + i)

let cordic () =
  let arity = 23 in
  Mo_cover.of_covers
    [
      parity_cover ~arity ~vars:cordic_vars_a ~even:false;
      parity_cover ~arity ~vars:cordic_vars_b ~even:false;
    ]

let cordic_negation () =
  let arity = 23 in
  Mo_cover.of_covers
    [
      parity_cover ~arity ~vars:cordic_vars_a ~even:true;
      parity_cover ~arity ~vars:cordic_vars_b ~even:true;
    ]
