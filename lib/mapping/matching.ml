open Mcx_util

let cm_of_defects defects =
  let rows = Mcx_crossbar.Defect_map.rows defects in
  let cols = Mcx_crossbar.Defect_map.cols defects in
  let cm = Bmatrix.create ~rows ~cols false in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if
        Mcx_crossbar.Junction.defect_equal
          (Mcx_crossbar.Defect_map.get defects i j)
          Mcx_crossbar.Junction.Functional
      then Bmatrix.set cm i j true
    done
  done;
  cm

let row_matches ~fm ~fm_row ~cm ~cm_row =
  if Bmatrix.cols fm <> Bmatrix.cols cm then
    invalid_arg "Matching.row_matches: column count mismatch";
  (* FM row fits a crossbar row iff its programmed cells are a subset of
     the functional cells — one AND-NOT per word. *)
  Bmatrix.row_subset fm fm_row cm cm_row

let assign ~fm ~fm_rows ~cm ~cm_rows =
  Telemetry.count "matching.solves";
  if Bmatrix.cols fm <> Bmatrix.cols cm then
    invalid_arg "Matching.assign: column count mismatch";
  let fm_rows = Array.of_list fm_rows and cm_rows = Array.of_list cm_rows in
  let n = Array.length fm_rows and m = Array.length cm_rows and cols = Bmatrix.cols cm in
  (* Bitsets over positions in [cm_rows], [words] ints each; entry [i] of
     a table starts at [i * words]. [functional.(j)]: the positions whose
     column-j junction works. [adj.(i)]: the positions FM row i fits, the
     AND of [functional] over its required columns. *)
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
  (* The lowest position FM row [i] fits that is not in [blocked], added
     to [blocked] before it is returned; -1 when none is left. *)
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
  (* Greedy pass: each FM row in turn takes its lowest free fitting
     position. *)
  let taken = Array.make words 0 in
  let leftover =
    List.filter
      (fun i ->
        let k = first i taken 0 in
        not (k >= 0 && take i k))
      (List.init n Fun.id)
  in
  (* One alternating-path search (Kuhn) per leftover row, in ascending
     position. When it fails, the FM rows it reached fit fewer positions
     than there are of them (Hall's condition), so no matching exists. *)
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

let check_assignment ~fm ~cm assignment =
  let n_cm = Bmatrix.rows cm in
  let taken = Array.make n_cm false in
  let rec go fm_row =
    fm_row = Array.length assignment
    ||
    let t = assignment.(fm_row) in
    t >= 0 && t < n_cm
    && (not taken.(t))
    && begin
      taken.(t) <- true;
      row_matches ~fm ~fm_row ~cm ~cm_row:t
    end
    && go (fm_row + 1)
  in
  Array.length assignment = Bmatrix.rows fm && go 0
