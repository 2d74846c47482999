type t = { arity : int; cubes : Cube.t list }

let create ~arity cubes =
  if arity < 0 then invalid_arg "Cover.create: negative arity";
  List.iter
    (fun c ->
      if Cube.arity c <> arity then invalid_arg "Cover.create: cube arity mismatch")
    cubes;
  { arity; cubes }

let empty n = create ~arity:n []
let top n = create ~arity:n [ Cube.universe n ]

let arity t = t.arity
let cubes t = t.cubes
let size t = List.length t.cubes
let literal_count t = List.fold_left (fun acc c -> acc + Cube.num_literals c) 0 t.cubes
let is_empty t = List.is_empty t.cubes

let eval t v =
  match t.cubes with
  | [] -> false
  | cubes ->
    (* Same error behaviour as evaluating cube-by-cube, but the assignment
       is packed once and shared across the whole cover. *)
    if Array.length v <> t.arity then invalid_arg "Cube.eval: arity mismatch";
    let packed = Cube.pack_assignment v in
    List.exists (fun c -> Cube.eval_packed c packed) cubes

let add_cube t c =
  if Cube.arity c <> t.arity then invalid_arg "Cover.add_cube: arity mismatch";
  { t with cubes = t.cubes @ [ c ] }

let union a b =
  if a.arity <> b.arity then invalid_arg "Cover.union: arity mismatch";
  { a with cubes = a.cubes @ b.cubes }

let of_strings = function
  | [] -> invalid_arg "Cover.of_strings: empty list"
  | first :: _ as rows ->
    let arity = String.length first in
    create ~arity (List.map Cube.of_string rows)

let of_minterms ~arity ms =
  let cube_of_minterm m =
    if Array.length m <> arity then invalid_arg "Cover.of_minterms: arity mismatch";
    Cube.of_literals (Array.map (fun b -> if b then Literal.Pos else Literal.Neg) m)
  in
  create ~arity (List.map cube_of_minterm ms)

let single_cube_containment t =
  let rec keep acc = function
    | [] -> List.rev acc
    | c :: rest ->
      let covered_by other = Cube.covers other c in
      if List.exists covered_by acc || List.exists covered_by rest then keep acc rest
      else keep (c :: acc) rest
  in
  (* Larger cubes come first, so a later cube covers [c] only if it
     equals [c]: of equal copies every one but the last is dropped by the
     [rest] check, and the last is kept at its own place. *)
  let cubes =
    keep []
      (List.stable_sort (fun a b -> Int.compare (Cube.num_literals a) (Cube.num_literals b)) t.cubes)
  in
  { t with cubes }

let sharp a b =
  if a.arity <> b.arity then invalid_arg "Cover.sharp: arity mismatch";
  let sharp_cube_by_cover c =
    List.fold_left
      (fun pieces divisor ->
        List.concat_map (fun piece -> Cube.sharp piece divisor) pieces)
      [ c ] b.cubes
  in
  single_cube_containment
    { a with cubes = List.concat_map sharp_cube_by_cover a.cubes }

let equal_semantics a b =
  if a.arity <> b.arity then invalid_arg "Cover.equal_semantics: arity mismatch";
  if a.arity > 22 then invalid_arg "Cover.equal_semantics: arity too large";
  let n = a.arity in
  let v = Array.make n false in
  let rec go idx =
    if idx = 1 lsl n then true
    else begin
      for i = 0 to n - 1 do
        v.(i) <- (idx lsr i) land 1 = 1
      done;
      Bool.equal (eval a v) (eval b v) && go (idx + 1)
    end
  in
  go 0

let pp ppf t =
  if is_empty t then Format.fprintf ppf "<empty/%d>" t.arity
  else
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " + ")
      Cube.pp ppf t.cubes
