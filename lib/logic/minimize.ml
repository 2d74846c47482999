open Mcx_util

let cost f = (Cover.size f, Cover.literal_count f)

(* The OFF-set laid flat, cube j at words [j*w, (j+1)*w) of [care] and
   [pol] (the layout of [Cube]). *)
type off = { w : int; count : int; care : int array; pol : int array }

let flat_off off =
  let cubes = Array.of_list (Cover.cubes off) in
  let w = Bits.words_for (Cover.arity off) in
  let words get = Array.init (Array.length cubes * w) (fun x -> get cubes.(x / w) (x mod w)) in
  { w; count = Array.length cubes; care = words Cube.care_word; pol = words Cube.pol_word }

(* Raise the literals of [c] in variable order while the cube stays off the
   OFF-set. [c] lies off it, so each OFF cube conflicts with [c] on some
   variable, and raising [v] adds a half that meets an OFF cube iff that
   cube conflicts with the cube on [v] alone. [conflicts.(j)] counts OFF
   cube j's conflicts with the current cube and [blocked] holds the
   variables some OFF cube conflicts on alone; a raise only lowers counts. *)
let expand_cube off ~arity c =
  let w = off.w and ocare = off.care and opol = off.pol in
  let cc = Array.init w (Cube.care_word c) and cp = Array.init w (Cube.pol_word c) in
  let conflicts = Array.make off.count 0 and blocked = Array.make w 0 in
  let block_single j =
    for k = 0 to w - 1 do
      let x = (j * w) + k in
      blocked.(k) <-
        blocked.(k) lor (Array.unsafe_get ocare x land cc.(k) land (Array.unsafe_get opol x lxor cp.(k)))
    done
  in
  for j = 0 to off.count - 1 do
    let n = ref 0 in
    for k = 0 to w - 1 do
      let x = (j * w) + k in
      n := !n + Bits.popcount (Array.unsafe_get ocare x land cc.(k) land (Array.unsafe_get opol x lxor cp.(k)))
    done;
    conflicts.(j) <- !n;
    if !n = 1 then block_single j
  done;
  for k = 0 to w - 1 do
    let m = ref cc.(k) in
    while !m <> 0 do
      let bit = !m land (- !m) in
      if blocked.(k) land bit = 0 then begin
        let p = cp.(k) in
        cc.(k) <- cc.(k) land lnot bit;
        cp.(k) <- p land lnot bit;
        for j = 0 to off.count - 1 do
          let x = (j * w) + k in
          if Array.unsafe_get ocare x land (Array.unsafe_get opol x lxor p) land bit <> 0 then begin
            conflicts.(j) <- conflicts.(j) - 1;
            if conflicts.(j) = 1 then block_single j
          end
        done
      end;
      m := !m land (!m - 1)
    done
  done;
  Cube.of_words ~arity cc cp 0

(* Cubes with the fewest minterms expand first. *)
let expand_flat off f =
  let arity = Cover.arity f in
  let by_fewest_minterms a b = Int.compare (Cube.num_literals b) (Cube.num_literals a) in
  let cubes = List.stable_sort by_fewest_minterms (Cover.cubes f) in
  Cover.single_cube_containment (Cover.create ~arity (List.map (expand_cube off ~arity) cubes))

let check_off name ~off f =
  if Cover.arity off <> Cover.arity f then invalid_arg ("Minimize." ^ name ^ ": arity mismatch")

let expand ~off f =
  check_off "expand" ~off f;
  expand_flat (flat_off off) f

(* Visit [cubes] in order and drop each one the others still on cover;
   [cubes] are the first cubes of [sweep], the rest stay on throughout. *)
let drop_covered sweep cubes =
  let rec visit i = function
    | [] -> []
    | c :: rest ->
      Tautology.switch sweep i false;
      if Tautology.covers sweep c then visit (i + 1) rest
      else begin
        Tautology.switch sweep i true;
        c :: visit (i + 1) rest
      end
  in
  visit 0 cubes

let irredundant f =
  let n = Cover.arity f in
  (* Visiting large cubes last keeps the specific cubes only when needed. *)
  let by_most_minterms a b = Int.compare (Cube.num_literals a) (Cube.num_literals b) in
  let cubes = List.stable_sort by_most_minterms (Cover.cubes f) in
  Cover.create ~arity:n (drop_covered (Tautology.of_cubes ~arity:n cubes) cubes)

(* Each cube in turn shrinks to the hull of what the others miss, and the
   later cubes are reduced against it. A cube the others cover is kept;
   irredundant deletes it. Largest cubes go first: they overlap the most. *)
let reduce f =
  let n = Cover.arity f in
  let by_fewest_literals a b = Int.compare (Cube.num_literals a) (Cube.num_literals b) in
  let cubes = List.stable_sort by_fewest_literals (Cover.cubes f) in
  let sweep = Tautology.of_cubes ~arity:n cubes in
  let reduce_cube i c =
    Tautology.switch sweep i false;
    let r = Option.value (Tautology.hull sweep c) ~default:c in
    Tautology.set sweep i r;
    Tautology.switch sweep i true;
    r
  in
  Cover.create ~arity:n (List.mapi reduce_cube cubes)

let espresso ~off f =
  check_off "espresso" ~off f;
  Telemetry.span "minimize.espresso" @@ fun () ->
  let off = flat_off off in
  let better a b = compare a b < 0 in
  let rec loop current current_cost budget =
    if budget = 0 then current
    else begin
      Telemetry.count "minimize.espresso_iters";
      let candidate = irredundant (expand_flat off (reduce current)) in
      let candidate_cost = cost candidate in
      if better candidate_cost current_cost then loop candidate candidate_cost (budget - 1)
      else current
    end
  in
  let start = irredundant (expand_flat off (Cover.single_cube_containment f)) in
  loop start (cost start) 8

let complement_minimized f = espresso ~off:f (Complement.complement f)
