open Mcx_util
open Mcx_crossbar
open Mcx_mapping

let assign ~fm ~fm_rows ~cm ~cm_rows =
  if Bmatrix.cols fm <> Bmatrix.cols cm then
    invalid_arg "Mapping_reference.assign: column count mismatch";
  let fm_rows = Array.of_list fm_rows and cm_rows = Array.of_list cm_rows in
  let n = Array.length fm_rows and m = Array.length cm_rows and cols = Bmatrix.cols cm in
  let words = Bits.words_for m in
  let functional = Array.make (cols * words) 0 in
  Array.iteri
    (fun k cm_row ->
      for j = 0 to cols - 1 do
        if Bmatrix.get cm cm_row j then begin
          let w = (j * words) + Bits.word_of k in
          functional.(w) <- functional.(w) lor (1 lsl Bits.bit_of k)
        end
      done)
    cm_rows;
  let adj = Array.make (n * words) (-1) in
  Array.iteri
    (fun i fm_row ->
      if words > 0 then adj.((i * words) + words - 1) <- Bits.tail_mask m;
      for j = 0 to cols - 1 do
        if Bmatrix.get fm fm_row j then
          for w = 0 to words - 1 do
            adj.((i * words) + w) <- adj.((i * words) + w) land functional.((j * words) + w)
          done
      done)
    fm_rows;
  let rec first i blocked w =
    if w = words then -1
    else
      let open_ = adj.((i * words) + w) land lnot blocked.(w) in
      if open_ = 0 then first i blocked (w + 1)
      else begin
        blocked.(w) <- blocked.(w) lor (open_ land -open_);
        (w * Bits.word_bits) + Bits.ctz open_
      end
  in
  let owner = Array.make m (-1) and target = Array.make n (-1) in
  let take i k =
    owner.(k) <- i;
    target.(i) <- k;
    true
  in
  let taken = Array.make words 0 in
  let leftover =
    List.filter
      (fun i ->
        let k = first i taken 0 in
        not (k >= 0 && take i k))
      (List.init n Fun.id)
  in
  let visited = Array.make words 0 in
  let rec augment i =
    let k = first i visited 0 in
    k >= 0 && if owner.(k) < 0 || augment owner.(k) then take i k else augment i
  in
  let placed i =
    Array.fill visited 0 words 0;
    augment i
  in
  if List.for_all placed leftover then Some (Array.map (fun k -> cm_rows.(k)) target)
  else None

let order_rows order fm rows =
  match order with
  | Hybrid.Top_down -> rows
  | Hybrid.Hardest_first ->
    List.stable_sort
      (fun a b -> Int.compare (Bmatrix.count_row fm b) (Bmatrix.count_row fm a))
      rows

let hybrid_map_rows ?(order = Hybrid.Top_down) ~fm ~greedy_rows ~assignment_rows cm =
  let n_cm = Bmatrix.rows cm in
  let owner = Array.make n_cm (-1) in
  let assigned = Array.make (Bmatrix.rows fm) (-1) in
  let backtracks = ref 0 and relocations = ref 0 in
  let matches fm_row cm_row = Matching.row_matches ~fm ~fm_row ~cm ~cm_row in
  let set fm_row cm_row =
    owner.(cm_row) <- fm_row;
    assigned.(fm_row) <- cm_row
  in
  let find_unmatched fm_row =
    let rec go t =
      if t = n_cm then None
      else if owner.(t) < 0 && matches fm_row t then Some t
      else go (t + 1)
    in
    go 0
  in
  let backtrack fm_row =
    incr backtracks;
    let rec go t =
      if t = n_cm then false
      else if owner.(t) >= 0 && matches fm_row t then begin
        let previous = owner.(t) in
        match find_unmatched previous with
        | Some fresh ->
          incr relocations;
          set previous fresh;
          set fm_row t;
          true
        | None -> go (t + 1)
      end
      else go (t + 1)
    in
    go 0
  in
  let place_minterm fm_row =
    match find_unmatched fm_row with
    | Some t ->
      set fm_row t;
      true
    | None -> backtrack fm_row
  in
  let minterms_ok = List.for_all place_minterm (order_rows order fm greedy_rows) in
  let stats = { Hybrid.backtracks = !backtracks; relocations = !relocations } in
  if not minterms_ok then (None, stats)
  else begin
    let unmatched = List.filter (fun t -> owner.(t) < 0) (List.init n_cm Fun.id) in
    match assign ~fm ~fm_rows:assignment_rows ~cm ~cm_rows:unmatched with
    | Some targets ->
      List.iteri (fun k fm_row -> assigned.(fm_row) <- targets.(k)) assignment_rows;
      (Some assigned, stats)
    | None -> (None, stats)
  end

let hybrid_map_with_stats ?order fm_struct cm =
  let fm = fm_struct.Function_matrix.matrix in
  let output_rows = Function_matrix.output_row_indices fm_struct in
  let greedy_rows =
    List.filter (fun i -> not (List.mem i output_rows)) (List.init (Bmatrix.rows fm) Fun.id)
  in
  hybrid_map_rows ?order ~fm ~greedy_rows ~assignment_rows:output_rows cm

let restricted_cm defects chosen =
  let rows = Defect_map.rows defects in
  let cm = Bmatrix.create ~rows ~cols:(Array.length chosen) false in
  for r = 0 to rows - 1 do
    let at c = Defect_map.get defects r c in
    if not (Array.exists (fun c -> Junction.defect_equal (at c) Junction.Stuck_closed) chosen)
    then
      Array.iteri
        (fun j c -> if Junction.defect_equal (at c) Junction.Functional then Bmatrix.set cm r j true)
        chosen
  done;
  cm

let column_score defects c =
  let score = ref 0 in
  for r = 0 to Defect_map.rows defects - 1 do
    match Defect_map.get defects r c with
    | Junction.Stuck_closed -> score := !score + 1000
    | Junction.Stuck_open -> score := !score + 1
    | Junction.Functional -> ()
  done;
  !score

let redundant_map ~prng ~algorithm fm_struct defects =
  let fm_cols = Bmatrix.cols fm_struct.Function_matrix.matrix in
  let columns k =
    let all = Array.init (Defect_map.cols defects) Fun.id in
    if k = 0 then begin
      let scored = Array.map (fun c -> (column_score defects c, c)) all in
      Array.sort compare scored;
      let chosen = Array.sub (Array.map snd scored) 0 fm_cols in
      Array.sort compare chosen;
      chosen
    end
    else begin
      Prng.shuffle_in_place prng all;
      Array.sub all 0 fm_cols
    end
  in
  let rec attempt k =
    if k >= 8 then None
    else begin
      let chosen = columns k in
      let cm = restricted_cm defects chosen in
      let rows =
        match algorithm with
        | `Hybrid -> Hybrid.map fm_struct cm
        | `Exact -> Exact.map fm_struct cm
      in
      match rows with
      | Some row_assignment -> Some { Redundant.row_assignment; col_assignment = chosen }
      | None -> attempt (k + 1)
    end
  in
  attempt 0
