(* Cover complementation as it stood on lists of [Cube.t], with a
   single-cube-containment pass at every node: the reference the
   library's flat-array [Complement] must match cube for cube, in the same
   order. Telemetry is left to the library version. *)

open Mcx_logic

let cofactor f ~var ~value =
  Cover.create ~arity:(Cover.arity f)
    (List.filter_map (fun c -> Cube.cofactor c ~var ~value) (Cover.cubes f))

let var_occurrences f var =
  let pos = ref 0 and neg = ref 0 in
  List.iter
    (fun c ->
      match Cube.get c var with
      | Literal.Pos -> incr pos
      | Literal.Neg -> incr neg
      | Literal.Absent -> ())
    (Cover.cubes f);
  (!pos, !neg)

(* The variable maximizing min(pos, neg), then pos + neg; the first on
   ties; [None] when no cube has a literal. *)
let most_binate_var f =
  let best = ref None in
  for var = 0 to Cover.arity f - 1 do
    let pos, neg = var_occurrences f var in
    if pos + neg > 0 then begin
      let key = (min pos neg, pos + neg) in
      match !best with
      | Some (_, best_key) when compare key best_key <= 0 -> ()
      | Some _ | None -> best := Some (var, key)
    end
  done;
  Option.map fst !best

(* complement(f) about a branching variable x:
     f' = x . (f_x)'  +  x' . (f_x')'
   Leaves: empty cover -> universe; cover containing the universe cube ->
   empty. Branch on the most binate variable to keep the recursion shallow. *)

let rec complement_rec f =
  let n = Cover.arity f in
  if Cover.is_empty f then Cover.top n
  else if List.exists (fun c -> Cube.num_literals c = 0) (Cover.cubes f) then Cover.empty n
  else
    match most_binate_var f with
    | None -> Cover.empty n
    | Some var ->
      let pos_branch = complement_rec (cofactor f ~var ~value:true) in
      let neg_branch = complement_rec (cofactor f ~var ~value:false) in
      let attach value branch =
        let lit = if value then Literal.Pos else Literal.Neg in
        List.filter_map
          (fun c ->
            match Cube.get c var with
            | Literal.Absent -> Some (Cube.set c var lit)
            | Literal.Pos | Literal.Neg ->
              (* Cofactors contain no literal of [var]; defensive. *)
              None)
          (Cover.cubes branch)
      in
      let cubes = attach true pos_branch @ attach false neg_branch in
      Cover.single_cube_containment (Cover.create ~arity:n cubes)

let complement = complement_rec
