(* A cube is a [Cube_packed.t]: two packed word masks (care / polarity).
   This module keeps the Literal-level API and the handful of enumeration
   helpers (sharp, minterms) that are clearer — and cold enough — at the
   per-variable level; everything hot delegates to the packed kernels. *)

type t = Cube_packed.t

let universe = Cube_packed.universe
let of_literals = Cube_packed.of_literals

let of_string s = Cube_packed.make ~arity:(String.length s) ~f:(fun i -> Literal.of_char s.[i])

let to_string c = String.init (Cube_packed.arity c) (fun i -> Literal.to_char (Cube_packed.get c i))

let arity = Cube_packed.arity
let get = Cube_packed.get
let set = Cube_packed.set
let literals = Cube_packed.literals
let num_literals = Cube_packed.num_literals
let is_minterm = Cube_packed.is_minterm
let equal = Cube_packed.equal
let compare = Cube_packed.compare
let hash = Cube_packed.hash

module Tbl = Hashtbl.Make (Cube_packed)
let eval = Cube_packed.eval
let pack_assignment = Cube_packed.pack_assignment
let eval_packed = Cube_packed.eval_packed
let covers = Cube_packed.covers
let intersect = Cube_packed.intersect
let distance = Cube_packed.distance
let supercube = Cube_packed.supercube
let cofactor = Cube_packed.cofactor
let cofactor_wrt = Cube_packed.cofactor_wrt
let complement_literals = Cube_packed.complement_literals
let merge_adjacent = Cube_packed.merge_adjacent

let sharp a b =
  if arity a <> arity b then invalid_arg "Cube.sharp: arity mismatch";
  match intersect a b with
  | None -> [ a ]
  | Some _ ->
    (* Disjoint-sharp recurrence: walk the variables where b constrains a
       more tightly; each produces one cube of the difference, with the
       earlier variables pinned to b's values to keep the cubes disjoint. *)
    let a_arr = Cube_packed.to_array a and b_arr = Cube_packed.to_array b in
    let out = ref [] in
    let pinned = Array.copy a_arr in
    for i = 0 to Array.length a_arr - 1 do
      (match (a_arr.(i), b_arr.(i)) with
      | Literal.Absent, (Literal.Pos | Literal.Neg) ->
        let piece = Array.copy pinned in
        piece.(i) <- Literal.complement b_arr.(i);
        out := of_literals piece :: !out;
        pinned.(i) <- b_arr.(i)
      | (Literal.Pos | Literal.Neg | Literal.Absent), _ -> ())
    done;
    List.rev !out

let minterms c =
  let n = arity c in
  let lits = Cube_packed.to_array c in
  let free = List.filter (fun i -> Literal.equal lits.(i) Literal.Absent) (List.init n Fun.id) in
  let base = Array.map (function Literal.Pos -> true | Literal.Neg | Literal.Absent -> false) lits in
  let rec expand vars acc =
    match vars with
    | [] -> [ Array.copy acc ]
    | v :: rest ->
      acc.(v) <- false;
      let lows = expand rest acc in
      acc.(v) <- true;
      let highs = expand rest acc in
      acc.(v) <- false;
      lows @ highs
  in
  expand free base

let pp ppf c = Format.pp_print_string ppf (to_string c)
