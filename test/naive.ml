(* Naive reference implementations of the cube / cover / boolean-matrix
   kernels: one literal (or cell) at a time, no packing, written to be
   obviously correct rather than fast.

   This is the differential-test oracle: oracle.ml pits the packed
   kernels of [Cube] and [Bmatrix] against it on randomized
   inputs. Do not "optimize" this module: its value is its independence
   from the packed representation. *)

open Mcx_logic

type cube = Literal.t array

let of_cube c = Cube.of_literals c
let to_cube (c : Cube.t) : cube = Array.init (Cube.arity c) (Cube.get c)

let num_literals (c : cube) =
  Array.fold_left (fun n l -> if Literal.equal l Literal.Absent then n else n + 1) 0 c

let covers (a : cube) (b : cube) =
  Array.length a = Array.length b
  &&
  let rec go i = i = Array.length a || (Literal.covers a.(i) b.(i) && go (i + 1)) in
  go 0

let intersect (a : cube) (b : cube) : cube option =
  if Array.length a <> Array.length b then invalid_arg "Naive.intersect: arity mismatch";
  let out = Array.make (Array.length a) Literal.Absent in
  let rec go i =
    if i = Array.length a then Some out
    else
      match Literal.intersect a.(i) b.(i) with
      | None -> None
      | Some l ->
        out.(i) <- l;
        go (i + 1)
  in
  go 0

let distance (a : cube) (b : cube) =
  if Array.length a <> Array.length b then invalid_arg "Naive.distance: arity mismatch";
  let d = ref 0 in
  for i = 0 to Array.length a - 1 do
    match (a.(i), b.(i)) with
    | Literal.Pos, Literal.Neg | Literal.Neg, Literal.Pos -> incr d
    | (Literal.Pos | Literal.Neg | Literal.Absent), _ -> ()
  done;
  !d

let supercube (a : cube) (b : cube) : cube =
  if Array.length a <> Array.length b then invalid_arg "Naive.supercube: arity mismatch";
  Array.init (Array.length a) (fun i ->
      if Literal.equal a.(i) b.(i) then a.(i) else Literal.Absent)

let merge_adjacent (a : cube) (b : cube) : cube option =
  if Array.length a <> Array.length b then invalid_arg "Naive.merge_adjacent: arity mismatch";
  let diff = ref None in
  let ok = ref true in
  for i = 0 to Array.length a - 1 do
    if !ok && not (Literal.equal a.(i) b.(i)) then begin
      match (a.(i), b.(i), !diff) with
      | Literal.Pos, Literal.Neg, None | Literal.Neg, Literal.Pos, None -> diff := Some i
      | _, _, _ -> ok := false
    end
  done;
  match (!ok, !diff) with
  | true, Some i ->
    let out = Array.copy a in
    out.(i) <- Literal.Absent;
    Some out
  | true, None | false, _ -> None

let cofactor (c : cube) ~var ~value : cube option =
  if var < 0 || var >= Array.length c then invalid_arg "Naive.cofactor: variable out of range";
  let required = if value then Literal.Pos else Literal.Neg in
  match c.(var) with
  | Literal.Absent -> Some (Array.copy c)
  | l when Literal.equal l required ->
    let out = Array.copy c in
    out.(var) <- Literal.Absent;
    Some out
  | Literal.Pos | Literal.Neg -> None

let cofactor_wrt (g : cube) (c : cube) : cube option =
  if Array.length g <> Array.length c then invalid_arg "Naive.cofactor_wrt: arity mismatch";
  let out = Array.make (Array.length g) Literal.Absent in
  let ok = ref true in
  for i = 0 to Array.length g - 1 do
    match (c.(i), g.(i)) with
    | Literal.Absent, l -> out.(i) <- l
    | (Literal.Pos | Literal.Neg), Literal.Absent -> ()
    | Literal.Pos, Literal.Pos | Literal.Neg, Literal.Neg -> ()
    | Literal.Pos, Literal.Neg | Literal.Neg, Literal.Pos -> ok := false
  done;
  if !ok then Some out else None

let eval (c : cube) v =
  if Array.length c <> Array.length v then invalid_arg "Naive.eval: arity mismatch";
  let rec go i = i = Array.length c || (Literal.matches c.(i) v.(i) && go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Covers as bare cube lists                                           *)
(* ------------------------------------------------------------------ *)

(* Drop every cube covered by a kept earlier cube or by any later cube —
   mirrors [Cover.single_cube_containment]'s stable sweep over cubes
   sorted by ascending literal count. *)
let single_cube_containment (cubes : cube list) =
  let sorted =
    List.stable_sort (fun a b -> Int.compare (num_literals a) (num_literals b)) cubes
  in
  let rec keep acc = function
    | [] -> List.rev acc
    | c :: rest ->
      let covered_by other = covers other c in
      if List.exists covered_by acc || List.exists covered_by rest then keep acc rest
      else keep (c :: acc) rest
  in
  keep [] sorted

(* Unate-recursive tautology on the naive representation. *)
let rec tautology ~arity (cubes : cube list) =
  if List.exists (fun c -> num_literals c = 0) cubes then true
  else if cubes = [] then false
  else begin
    (* most binate variable, ties to the lowest index — as [Complement]'s *)
    let best = ref None in
    for var = 0 to arity - 1 do
      let pos = ref 0 and neg = ref 0 in
      List.iter
        (fun c ->
          match c.(var) with
          | Literal.Pos -> incr pos
          | Literal.Neg -> incr neg
          | Literal.Absent -> ())
        cubes;
      if !pos + !neg > 0 then begin
        let key = (min !pos !neg, !pos + !neg) in
        match !best with
        | Some (_, _, best_key) when compare key best_key <= 0 -> ()
        | Some _ | None -> best := Some (var, (!pos, !neg), key)
      end
    done;
    match !best with
    | None -> false
    | Some (var, (pos, neg), _) ->
      let cof value =
        List.filter_map (fun c -> cofactor c ~var ~value) cubes
      in
      if pos = 0 || neg = 0 then tautology ~arity (cof (pos = 0))
      else tautology ~arity (cof true) && tautology ~arity (cof false)
  end

(* ------------------------------------------------------------------ *)
(* Boolean matrices as bool array array                                *)
(* ------------------------------------------------------------------ *)

type bmatrix = bool array array

let of_bmatrix (m : bmatrix) =
  let t = Mcx_util.Bmatrix.create ~rows:(Array.length m) ~cols:(Array.length m.(0)) false in
  Array.iteri (fun i row -> Array.iteri (fun j v -> if v then Mcx_util.Bmatrix.set t i j true) row) m;
  t

let row_subset (a : bmatrix) i (b : bmatrix) j =
  let rec go k = k = Array.length a.(i) || ((not a.(i).(k)) || b.(j).(k)) && go (k + 1) in
  go 0

let row_intersects (a : bmatrix) i (b : bmatrix) j =
  let rec go k = k < Array.length a.(i) && ((a.(i).(k) && b.(j).(k)) || go (k + 1)) in
  go 0

let row_count (a : bmatrix) i =
  Array.fold_left (fun n v -> if v then n + 1 else n) 0 a.(i)
