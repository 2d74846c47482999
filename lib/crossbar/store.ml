open Mcx_logic

type 'v domain = {
  const : bool -> 'v;
  lit : int -> bool -> 'v;
  not_ : 'v -> 'v;
  for_all : (int -> 'v) -> int array -> 'v;
}

type 'v t = {
  dom : 'v domain;
  defects : Defect_map.t;
  upset : (unit -> bool) option;
  values : 'v array array;
  mutable writes : int;
}

let create ~name ?defects ?upset dom ~rows ~cols =
  let defects = match defects with Some d -> d | None -> Defect_map.create ~rows ~cols in
  if Defect_map.rows defects <> rows || Defect_map.cols defects <> cols then
    invalid_arg (name ^ ": defect map dimension mismatch");
  { dom; defects; upset; values = Array.make_matrix rows cols (dom.const true); writes = 0 }

(* A transient upset corrupts the value being stored; stuck junctions are
   immune (their state cannot change at all), so they keep the value INA
   left in them whatever is written. *)
let write s r c v =
  s.writes <- s.writes + 1;
  let v = match s.upset with Some hit when hit () -> s.dom.not_ v | Some _ | None -> v in
  s.values.(r).(c) <-
    (match Defect_map.get s.defects r c with
    | Junction.Functional -> v
    | (Junction.Stuck_open | Junction.Stuck_closed) as d -> s.dom.const (Junction.reset_value d))

let initialize s =
  let one = s.dom.const true in
  Array.iteri (fun r row -> for c = 0 to Array.length row - 1 do write s r c one done) s.values

let writes s = s.writes

let row_nand s r cols =
  let row = s.values.(r) in
  s.dom.not_ (s.dom.for_all (fun c -> row.(c)) cols)

let col_and s c rows = s.dom.for_all (fun r -> s.values.(r).(c)) rows

let booleans ~name ~n_inputs inputs =
  if Array.length inputs <> n_inputs then invalid_arg (name ^ ": input arity mismatch");
  let lit i pol = Bool.equal inputs.(i) pol in
  { const = Fun.id; lit; not_ = not; for_all = Array.for_all }

(* One symbolic computation yields every output as a function of the
   inputs; canonicity makes the comparison with the cover a node check. *)
let agrees cover interpret =
  let m = Bdd.manager ~n_vars:(Mo_cover.n_inputs cover) () in
  let t = Bdd.bdd_true m and f = Bdd.bdd_false m in
  let for_all get idx =
    Array.fold_left (fun acc i -> if Bdd.is_false acc then acc else Bdd.and_ m acc (get i)) t idx
  in
  let const b = if b then t else f in
  let lit i pol = if pol then Bdd.var m i else Bdd.nvar m i in
  Array.for_all2 Bdd.equal (interpret { const; lit; not_ = Bdd.not_ m; for_all })
    (Bdd.of_mo_cover m cover)
