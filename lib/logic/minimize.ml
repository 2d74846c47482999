let cost f = (Cover.size f, Cover.literal_count f)

(* Try raising each literal of [c]; keep a raise when the grown cube is
   still inside [inside]. Raising order: variable index — deterministic.
   [c] lies inside [inside], so the grown cube does iff the half the raise
   adds does: the cube with that literal complemented. *)
let expand_cube inside c =
  let current = ref c in
  for var = 0 to Cube.arity c - 1 do
    match Cube.get !current var with
    | Literal.Absent -> ()
    | (Literal.Pos | Literal.Neg) as l ->
      if Tautology.covers inside (Cube.set !current var (Literal.complement l)) then
        current := Cube.set !current var Literal.Absent
  done;
  !current

(* An expanded cube that contains other cubes of the sweep takes its own
   cube's place there and switches them off. The cubes switched on keep
   f's function, so every containment answer is the one f itself gives,
   while later queries meet fewer cubes. An expansion that absorbs nothing
   is left out: a cover of larger, overlapping cubes is slower to prove. *)
let expand f =
  let n = Cover.arity f in
  let by_fewest_minterms a b = Int.compare (Cube.num_literals b) (Cube.num_literals a) in
  let cubes = List.stable_sort by_fewest_minterms (Cover.cubes f) in
  let inside = Tautology.of_cubes ~arity:n cubes in
  let expanded =
    List.mapi
      (fun i c ->
        let e = expand_cube inside c in
        Tautology.absorb inside i e;
        e)
      cubes
  in
  Cover.single_cube_containment (Cover.create ~arity:n expanded)

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

(* Cofactor a cover with respect to a cube: the cover's behaviour inside the
   cube's subspace, expressed over the free variables. Word-parallel. *)
let cofactor_wrt_cube f c =
  Mcx_util.Telemetry.count "minimize.cofactors";
  Cover.create ~arity:(Cover.arity f)
    (List.filter_map (fun g -> Cube.cofactor_wrt g c) (Cover.cubes f))

let reduce f =
  let n = Cover.arity f in
  let reduce_cube others c =
    let inside = cofactor_wrt_cube others c in
    let comp = Complement.complement inside in
    match Cover.cubes comp with
    | [] -> c (* fully covered by others; irredundant will delete it *)
    | first :: rest ->
      let sc = List.fold_left Cube.supercube first rest in
      (* Smallest cube containing c minus the others: keep c's fixed
         literals, adopt the supercube's constraint on free variables. *)
      let out =
        Array.init n (fun i ->
            match Cube.get c i with
            | Literal.Absent -> Cube.get sc i
            | (Literal.Pos | Literal.Neg) as l -> l)
      in
      Cube.of_literals out
  in
  let rec sweep done_ = function
    | [] -> List.rev done_
    | c :: rest ->
      let others = Cover.create ~arity:n (List.rev_append done_ rest) in
      sweep (reduce_cube others c :: done_) rest
  in
  (* Reduce largest cubes first: they overlap the most. *)
  let by_fewest_literals a b = Int.compare (Cube.num_literals a) (Cube.num_literals b) in
  Cover.create ~arity:n (sweep [] (List.stable_sort by_fewest_literals (Cover.cubes f)))

let espresso f =
  Mcx_util.Telemetry.span "minimize.espresso" @@ fun () ->
  let better a b = compare a b < 0 in
  let rec loop current current_cost budget =
    if budget = 0 then current
    else begin
      Mcx_util.Telemetry.count "minimize.espresso_iters";
      let candidate = irredundant (expand (reduce current)) in
      let candidate_cost = cost candidate in
      if better candidate_cost current_cost then loop candidate candidate_cost (budget - 1)
      else current
    end
  in
  let start = irredundant (expand (Cover.single_cube_containment f)) in
  loop start (cost start) 8

let espresso_dc ~dc f =
  if Cover.arity dc <> Cover.arity f then invalid_arg "Minimize.espresso_dc: arity mismatch";
  let n = Cover.arity f in
  let freedom = Cover.union f dc in
  (* Expansion may grow into ON u DC; a cube is redundant when the other
     cubes plus the DC set cover it; cubes entirely inside DC go first. *)
  let expand_dc g =
    let inside = Tautology.of_cubes ~arity:n (Cover.cubes freedom) in
    Cover.single_cube_containment
      (Cover.create ~arity:n (List.map (expand_cube inside) (Cover.cubes g)))
  in
  let irredundant_dc g =
    let by_most_minterms a b = Int.compare (Cube.num_literals a) (Cube.num_literals b) in
    let cubes = List.stable_sort by_most_minterms (Cover.cubes g) in
    let sweep = Tautology.of_cubes ~arity:n (cubes @ Cover.cubes dc) in
    Cover.create ~arity:n (drop_covered sweep cubes)
  in
  let rec loop current current_cost budget =
    if budget = 0 then current
    else begin
      Mcx_util.Telemetry.count "minimize.espresso_iters";
      let candidate = irredundant_dc (expand_dc current) in
      let candidate_cost = cost candidate in
      if compare candidate_cost current_cost < 0 then loop candidate candidate_cost (budget - 1)
      else current
    end
  in
  Mcx_util.Telemetry.span "minimize.espresso_dc" @@ fun () ->
  let start = irredundant_dc (expand_dc (Cover.single_cube_containment f)) in
  loop start (cost start) 6

let complement_minimized f = espresso (Complement.complement f)
