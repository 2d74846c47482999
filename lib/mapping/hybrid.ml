open Mcx_util
open Mcx_crossbar

type stats = { backtracks : int; relocations : int }

type order = Top_down | Hardest_first

let order_rows order fm rows =
  match order with
  | Top_down -> rows
  | Hardest_first ->
    List.stable_sort
      (fun a b -> Int.compare (Bmatrix.count_row fm b) (Bmatrix.count_row fm a))
      rows

let map_rows ?(order = Top_down) ~fm ~greedy_rows ~assignment_rows cm =
  Telemetry.span "hybrid.map" @@ fun () ->
  if Bmatrix.cols cm <> Bmatrix.cols fm then
    invalid_arg "Hybrid.map: column count mismatch";
  if Bmatrix.rows cm < Bmatrix.rows fm then
    invalid_arg "Hybrid.map: crossbar has fewer rows than the function matrix";
  let n_cm = Bmatrix.rows cm in
  let minterm_rows = Array.of_list (order_rows order fm greedy_rows) in
  (* Greedy row [g] is [minterm_rows.(g)]; its fit set is over all CM
     rows, so a position is a CM row. *)
  let fits = Matching.fit_sets ~fm ~fm_rows:minterm_rows ~cm ~cm_rows:(Array.init n_cm Fun.id) in
  let taken = Array.make fits.Matching.words 0 in
  let owner = Array.make n_cm (-1) in
  let assigned = Array.make (Bmatrix.rows fm) (-1) in
  let backtracks = ref 0 and relocations = ref 0 in
  let assign g cm_row =
    owner.(cm_row) <- g;
    assigned.(minterm_rows.(g)) <- cm_row;
    let w = Bits.word_of cm_row in
    taken.(w) <- taken.(w) lor (1 lsl Bits.bit_of cm_row)
  in
  (* Depth-1 backtracking, entered when [g] fits no free row, so every row
     it fits is owned: walk them in ascending order and steal the first
     whose owner can move to some still-free row. *)
  let backtrack g =
    incr backtracks;
    let base = g * fits.Matching.words in
    let rec scan w = w < fits.Matching.words && steal w fits.Matching.bits.(base + w)
    and steal w word =
      if word = 0 then scan (w + 1)
      else begin
        let t = (w * Bits.word_bits) + Bits.ctz word in
        let previous = owner.(t) in
        let fresh = Matching.first_fit fits previous ~blocked:taken in
        if fresh >= 0 then begin
          incr relocations;
          assign previous fresh;
          assign g t;
          true
        end
        else steal w (word land (word - 1))
      end
    in
    scan 0
  in
  let place_minterm g =
    let t = Matching.first_fit fits g ~blocked:taken in
    if t >= 0 then begin
      assign g t;
      true
    end
    else backtrack g
  in
  let minterms_ok =
    let rec go g = g = Array.length minterm_rows || (place_minterm g && go (g + 1)) in
    go 0
  in
  let stats () =
    Telemetry.count ~n:(Array.length minterm_rows) "hybrid.greedy_placements";
    Telemetry.count ~n:!backtracks "hybrid.backtracks";
    Telemetry.count ~n:!relocations "hybrid.relocations";
    { backtracks = !backtracks; relocations = !relocations }
  in
  if not minterms_ok then (None, stats ())
  else begin
    (* Exact assignment of the output rows over the unmatched CM rows. *)
    let unmatched = List.filter (fun t -> owner.(t) < 0) (List.init n_cm Fun.id) in
    match Matching.assign ~fm ~fm_rows:assignment_rows ~cm ~cm_rows:unmatched with
    | Some targets ->
      List.iteri (fun k fm_row -> assigned.(fm_row) <- targets.(k)) assignment_rows;
      (Some assigned, stats ())
    | None -> (None, stats ())
  end

let map_with_stats ?order fm_struct cm =
  let fm = fm_struct.Function_matrix.matrix in
  let output_rows = Function_matrix.output_row_indices fm_struct in
  let is_output = Array.make (Bmatrix.rows fm) false in
  List.iter (fun i -> is_output.(i) <- true) output_rows;
  let greedy_rows = List.filter (fun i -> not is_output.(i)) (List.init (Bmatrix.rows fm) Fun.id) in
  map_rows ?order ~fm ~greedy_rows ~assignment_rows:output_rows cm

let map ?order fm_struct cm = fst (map_with_stats ?order fm_struct cm)
