type t = { arity : int; table : Bytes.t }

let max_arity = 22

let arity t = t.arity

let check_arity n =
  if n < 0 || n > max_arity then
    invalid_arg (Printf.sprintf "Truthtable: arity %d out of [0, %d]" n max_arity)

let of_fun_int ~arity f =
  check_arity arity;
  let size = 1 lsl arity in
  let table = Bytes.create size in
  for idx = 0 to size - 1 do
    Bytes.unsafe_set table idx (if f idx then '\001' else '\000')
  done;
  { arity; table }

let get t idx =
  if idx < 0 || idx >= Bytes.length t.table then invalid_arg "Truthtable.get: out of range";
  Bytes.unsafe_get t.table idx <> '\000'

let minterm_indices t =
  let acc = ref [] in
  for idx = Bytes.length t.table - 1 downto 0 do
    if get t idx then acc := idx :: !acc
  done;
  !acc

let complement t =
  of_fun_int ~arity:t.arity (fun idx -> not (get t idx))

(* With at most [max_arity] variables a cube is one care and one polarity
   word, and its points are its polarity word joined with every subset of
   its free variables. *)
let word get c = if Cube.words c = 0 then 0 else get c 0
let free_of arity c = ((1 lsl arity) - 1) land lnot (word Cube.care_word c)

let of_cover f =
  let arity = Cover.arity f in
  check_arity arity;
  let table = Bytes.make (1 lsl arity) '\000' in
  List.iter
    (fun c ->
      let pol = word Cube.pol_word c and free = free_of arity c in
      let sub = ref free in
      Bytes.unsafe_set table pol '\001';
      while !sub <> 0 do
        Bytes.unsafe_set table (pol lor !sub) '\001';
        sub := (!sub - 1) land free
      done)
    (Cover.cubes f);
  { arity; table }

let covers t c =
  if Cube.arity c <> t.arity then invalid_arg "Truthtable.covers: arity mismatch";
  let table = t.table and pol = word Cube.pol_word c and free = free_of t.arity c in
  let rec walk sub =
    Bytes.unsafe_get table (pol lor sub) <> '\000' && (sub = 0 || walk ((sub - 1) land free))
  in
  walk free
