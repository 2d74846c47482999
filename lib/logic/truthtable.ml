type t = { arity : int; table : Bytes.t }

let max_arity = 22

let arity t = t.arity

let check_arity n =
  if n < 0 || n > max_arity then
    invalid_arg (Printf.sprintf "Truthtable: arity %d out of [0, %d]" n max_arity)

let index_of_assignment v =
  let idx = ref 0 in
  for i = Array.length v - 1 downto 0 do
    idx := (!idx lsl 1) lor (if v.(i) then 1 else 0)
  done;
  !idx

let assignment_of_index ~arity idx = Array.init arity (fun i -> (idx lsr i) land 1 = 1)

let of_fun_int ~arity f =
  check_arity arity;
  let size = 1 lsl arity in
  let table = Bytes.create size in
  for idx = 0 to size - 1 do
    Bytes.unsafe_set table idx (if f idx then '\001' else '\000')
  done;
  { arity; table }

let create ~arity f =
  check_arity arity;
  of_fun_int ~arity (fun idx -> f (assignment_of_index ~arity idx))

let get t idx =
  if idx < 0 || idx >= Bytes.length t.table then invalid_arg "Truthtable.get: out of range";
  Bytes.unsafe_get t.table idx <> '\000'

let eval t v =
  if Array.length v <> t.arity then invalid_arg "Truthtable.eval: arity mismatch";
  get t (index_of_assignment v)

let minterm_indices t =
  let acc = ref [] in
  for idx = Bytes.length t.table - 1 downto 0 do
    if get t idx then acc := idx :: !acc
  done;
  !acc

let on_count t =
  let n = ref 0 in
  Bytes.iter (fun c -> if c <> '\000' then incr n) t.table;
  !n

let complement t =
  of_fun_int ~arity:t.arity (fun idx -> not (get t idx))

let equal a b = a.arity = b.arity && Bytes.equal a.table b.table

(* With at most [max_arity] variables a cube is one care and one polarity
   word, and its points are its polarity word joined with every subset of
   its free variables. *)
let of_cover f =
  let arity = Cover.arity f in
  check_arity arity;
  let table = Bytes.make (1 lsl arity) '\000' in
  let word get c = if Cube_packed.words c = 0 then 0 else get c 0 in
  List.iter
    (fun c ->
      let pol = word Cube_packed.pol_word c in
      let free = ((1 lsl arity) - 1) land lnot (word Cube_packed.care_word c) in
      let sub = ref free in
      Bytes.unsafe_set table pol '\001';
      while !sub <> 0 do
        Bytes.unsafe_set table (pol lor !sub) '\001';
        sub := (!sub - 1) land free
      done)
    (Cover.cubes f);
  { arity; table }

let to_cover t =
  let ms = List.map (assignment_of_index ~arity:t.arity) (minterm_indices t) in
  Cover.of_minterms ~arity:t.arity ms

let random prng ~arity ~on_bias =
  check_arity arity;
  of_fun_int ~arity (fun _ -> Mcx_util.Prng.bernoulli prng on_bias)
