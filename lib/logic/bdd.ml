(* Hash-consed ROBDD. Nodes are integers indexing growable arrays
   (struct-of-arrays); node 0 = false, node 1 = true. The unique table and
   the computed table are flat int arrays, so neither a lookup nor an
   insertion allocates. *)

type manager = {
  n_vars : int;
  mutable var_of : int array;  (* node -> decision variable *)
  mutable low_of : int array;  (* node -> else child *)
  mutable high_of : int array;  (* node -> then child *)
  mutable n_nodes : int;
  mutable unique : int array;
      (* open addressing with linear probing; a slot holds a node or 0,
         which marks it empty since terminals are never entered. Twice as
         many slots as the node arrays have room for, so at most half
         full. *)
  mutable cache_f : int array;
  mutable cache_g : int array;
  mutable cache_h : int array;
  mutable cache_r : int array;
      (* computed table: slot i records ite(cache_f.(i), cache_g.(i),
         cache_h.(i)) = cache_r.(i), empty while cache_f.(i) = 0 (ite
         never stores a terminal [f]) *)
}

type t = { manager : manager; root : int }

let false_node = 0
let true_node = 1

(* Nodes a fresh manager has room for. The unique table has twice as many
   slots and the computed table half as many; all three double together.
   A computed table that large measured faster than one with a slot per
   unique-table slot: it loses more entries but touches less memory. *)
let initial_capacity = 128

let cache_slots capacity = capacity / 2

let hash3 a b c =
  let h = ((((a * 0x5bd1e995) + b) * 0x5bd1e995) + c) * 0x2545f4914f6cdd1d in
  h lxor (h lsr 29)

let manager ~n_vars () =
  if n_vars < 0 then invalid_arg "Bdd.manager: negative n_vars";
  let slots = cache_slots initial_capacity in
  {
    n_vars;
    (* Terminals sort after every real variable. *)
    var_of = Array.make initial_capacity max_int;
    low_of = Array.make initial_capacity 0;
    high_of = Array.make initial_capacity 0;
    n_nodes = 2;
    unique = Array.make (2 * initial_capacity) 0;
    cache_f = Array.make slots 0;
    cache_g = Array.make slots 0;
    cache_h = Array.make slots 0;
    cache_r = Array.make slots 0;
  }

let n_vars m = m.n_vars

(* The unique-table slot holding node (var, low, high), or else the empty
   slot where it belongs. *)
let find_slot m var low high =
  let unique = m.unique in
  let mask = Array.length unique - 1 in
  let slot = ref (hash3 var low high land mask) in
  let node = ref unique.(!slot) in
  while
    !node <> 0
    && not (m.var_of.(!node) = var && m.low_of.(!node) = low && m.high_of.(!node) = high)
  do
    slot := (!slot + 1) land mask;
    node := unique.(!slot)
  done;
  !slot

let cache_store m f g h r =
  let slot = hash3 f g h land (Array.length m.cache_f - 1) in
  m.cache_f.(slot) <- f;
  m.cache_g.(slot) <- g;
  m.cache_h.(slot) <- h;
  m.cache_r.(slot) <- r

(* Double the node arrays and both tables. The computed table keeps what
   survives the rehash; an entry lost to a collision is only recomputed. *)
let grow m =
  let capacity = 2 * Array.length m.var_of in
  let extend a fill =
    let fresh = Array.make capacity fill in
    Array.blit a 0 fresh 0 m.n_nodes;
    fresh
  in
  m.var_of <- extend m.var_of max_int;
  m.low_of <- extend m.low_of 0;
  m.high_of <- extend m.high_of 0;
  m.unique <- Array.make (2 * capacity) 0;
  for node = 2 to m.n_nodes - 1 do
    m.unique.(find_slot m m.var_of.(node) m.low_of.(node) m.high_of.(node)) <- node
  done;
  let f = m.cache_f and g = m.cache_g and h = m.cache_h and r = m.cache_r in
  let slots = cache_slots capacity in
  m.cache_f <- Array.make slots 0;
  m.cache_g <- Array.make slots 0;
  m.cache_h <- Array.make slots 0;
  m.cache_r <- Array.make slots 0;
  Array.iteri (fun i fi -> if fi <> 0 then cache_store m fi g.(i) h.(i) r.(i)) f

let mk m var low high =
  if low = high then low
  else begin
    let slot = find_slot m var low high in
    let found = m.unique.(slot) in
    if found <> 0 then found
    else begin
      let slot =
        if m.n_nodes < Array.length m.var_of then slot
        else begin
          grow m;
          find_slot m var low high
        end
      in
      let node = m.n_nodes in
      m.n_nodes <- node + 1;
      m.var_of.(node) <- var;
      m.low_of.(node) <- low;
      m.high_of.(node) <- high;
      m.unique.(slot) <- node;
      node
    end
  end

(* Core ite(f, g, h) = f ? g : h with standard terminal cases. *)
let rec ite_node m f g h =
  if f = true_node then g
  else if f = false_node then h
  else if g = h then g
  else if g = true_node && h = false_node then f
  else begin
    let slot = hash3 f g h land (Array.length m.cache_f - 1) in
    if m.cache_f.(slot) = f && m.cache_g.(slot) = g && m.cache_h.(slot) = h then
      m.cache_r.(slot)
    else begin
      let vf = m.var_of.(f) and vg = m.var_of.(g) and vh = m.var_of.(h) in
      let top = Int.min vf (Int.min vg vh) in
      let high =
        ite_node m
          (if vf = top then m.high_of.(f) else f)
          (if vg = top then m.high_of.(g) else g)
          (if vh = top then m.high_of.(h) else h)
      in
      let low =
        ite_node m
          (if vf = top then m.low_of.(f) else f)
          (if vg = top then m.low_of.(g) else g)
          (if vh = top then m.low_of.(h) else h)
      in
      let node = mk m top low high in
      cache_store m f g h node;
      node
    end
  end

let bdd_true m = { manager = m; root = true_node }
let bdd_false m = { manager = m; root = false_node }

let var m i =
  if i < 0 || i >= m.n_vars then invalid_arg "Bdd.var: out of range";
  { manager = m; root = mk m i false_node true_node }

let nvar m i =
  if i < 0 || i >= m.n_vars then invalid_arg "Bdd.nvar: out of range";
  { manager = m; root = mk m i true_node false_node }

let check_same m t =
  if t.manager != m then invalid_arg "Bdd: node from a different manager"

let not_ m a =
  check_same m a;
  { manager = m; root = ite_node m a.root false_node true_node }

let and_ m a b =
  check_same m a;
  check_same m b;
  { manager = m; root = ite_node m a.root b.root false_node }

let or_ m a b =
  check_same m a;
  check_same m b;
  { manager = m; root = ite_node m a.root true_node b.root }

let xor m a b =
  check_same m a;
  check_same m b;
  let not_b = ite_node m b.root false_node true_node in
  { manager = m; root = ite_node m a.root not_b b.root }

let nand m a b = not_ m (and_ m a b)

let ite m f g h =
  check_same m f;
  check_same m g;
  check_same m h;
  { manager = m; root = ite_node m f.root g.root h.root }

(* Combine neighbours pairwise, round after round: operands meet at
   similar sizes, where a left fold would push every one of them into one
   ever-growing accumulator. *)
let rec balanced op unit = function
  | [] -> unit
  | [ x ] -> x
  | xs ->
    let rec pairs = function
      | a :: b :: rest -> op a b :: pairs rest
      | short -> short
    in
    balanced op unit (pairs xs)

let or_list m = balanced (or_ m) (bdd_false m)

let equal a b = a.manager == b.manager && a.root = b.root
let is_true t = t.root = true_node
let is_false t = t.root = false_node

let eval t v =
  let m = t.manager in
  if Array.length v <> m.n_vars then invalid_arg "Bdd.eval: arity mismatch";
  let rec walk node =
    if node = true_node then true
    else if node = false_node then false
    else if v.(m.var_of.(node)) then walk m.high_of.(node)
    else walk m.low_of.(node)
  in
  walk t.root

let size t =
  let m = t.manager in
  let seen = Hashtbl.create 64 in
  let rec walk node =
    if node > true_node && not (Hashtbl.mem seen node) then begin
      Hashtbl.replace seen node ();
      walk m.low_of.(node);
      walk m.high_of.(node)
    end
  in
  walk t.root;
  Hashtbl.length seen

let count_minterms m t =
  check_same m t;
  let memo = Hashtbl.create 64 in
  (* fraction of the full space satisfying the sub-function *)
  let rec density node =
    if node = true_node then 1.
    else if node = false_node then 0.
    else
      match Hashtbl.find_opt memo node with
      | Some d -> d
      | None ->
        let d = 0.5 *. (density m.low_of.(node) +. density m.high_of.(node)) in
        Hashtbl.replace memo node d;
        d
  in
  density t.root *. (2. ** float_of_int m.n_vars)

let of_cube m cube =
  if Cube.arity cube <> m.n_vars then invalid_arg "Bdd.of_cube: arity mismatch";
  (* Build bottom-up along the variable order for a linear-size result. *)
  let root = ref true_node in
  for i = m.n_vars - 1 downto 0 do
    match Cube.get cube i with
    | Literal.Pos -> root := mk m i false_node !root
    | Literal.Neg -> root := mk m i !root false_node
    | Literal.Absent -> ()
  done;
  { manager = m; root = !root }

let of_cover m f =
  if Cover.arity f <> m.n_vars then invalid_arg "Bdd.of_cover: arity mismatch";
  or_list m (List.map (of_cube m) (Cover.cubes f))

let of_mo_cover m mo =
  if Mo_cover.n_inputs mo <> m.n_vars then invalid_arg "Bdd.of_mo_cover: arity mismatch";
  Array.init (Mo_cover.n_outputs mo) (fun k -> of_cover m (Mo_cover.output_cover mo k))

let cover_equal f g =
  if Cover.arity f <> Cover.arity g then invalid_arg "Bdd.cover_equal: arity mismatch";
  let m = manager ~n_vars:(Cover.arity f) () in
  equal (of_cover m f) (of_cover m g)

let mo_cover_equal a b =
  Mo_cover.n_inputs a = Mo_cover.n_inputs b
  && Mo_cover.n_outputs a = Mo_cover.n_outputs b
  &&
  let m = manager ~n_vars:(Mo_cover.n_inputs a) () in
  let xs = of_mo_cover m a and ys = of_mo_cover m b in
  Array.for_all2 equal xs ys
