open Mcx_logic

let index_of_assignment v =
  let idx = ref 0 in
  for i = Array.length v - 1 downto 0 do
    idx := (!idx lsl 1) lor if v.(i) then 1 else 0
  done;
  !idx

let assignment_of_index ~arity idx = Array.init arity (fun i -> (idx lsr i) land 1 = 1)

let create ~arity f = Truthtable.of_fun_int ~arity (fun idx -> f (assignment_of_index ~arity idx))

let eval t v =
  if Array.length v <> Truthtable.arity t then invalid_arg "Truthtable_helper.eval: arity mismatch";
  Truthtable.get t (index_of_assignment v)

let on_count t = List.length (Truthtable.minterm_indices t)

let equal a b =
  Truthtable.arity a = Truthtable.arity b
  && List.equal Int.equal (Truthtable.minterm_indices a) (Truthtable.minterm_indices b)

let to_cover t =
  let arity = Truthtable.arity t in
  let minterm idx =
    Cube.make ~arity ~f:(fun i -> if (idx lsr i) land 1 = 1 then Literal.Pos else Literal.Neg)
  in
  Cover.create ~arity (List.map minterm (Truthtable.minterm_indices t))

let random prng ~arity ~on_bias =
  Truthtable.of_fun_int ~arity (fun _ -> Mcx_util.Prng.bernoulli prng on_bias)
