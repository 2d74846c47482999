open Mcx_util

let cm_of_defects defects =
  Bmatrix.nor
    (Mcx_crossbar.Defect_map.open_mask defects)
    (Mcx_crossbar.Defect_map.closed_mask defects)

let row_matches ~fm ~fm_row ~cm ~cm_row =
  if Bmatrix.cols fm <> Bmatrix.cols cm then
    invalid_arg "Matching.row_matches: column count mismatch";
  (* FM row fits a crossbar row iff its programmed cells are a subset of
     the functional cells — one AND-NOT per word. *)
  Bmatrix.row_subset fm fm_row cm cm_row

type fit_sets = { words : int; bits : int array }

let fit_sets ~fm ~fm_rows ~cm ~cm_rows =
  if Bmatrix.cols fm <> Bmatrix.cols cm then
    invalid_arg "Matching.fit_sets: column count mismatch";
  let m = Array.length cm_rows and cols = Bmatrix.cols cm in
  let words = Bits.words_for m in
  (* [functional]: per column j, at [j * words], the positions whose
     column-j junction works; the clear cells of each CM row take their
     position out. *)
  let functional = Array.make (cols * words) (-1) in
  Array.iteri
    (fun k cm_row ->
      let w = Bits.word_of k and bit = 1 lsl Bits.bit_of k in
      Bmatrix.iter_row_clear cm cm_row (fun j ->
          let x = (j * words) + w in
          Array.unsafe_set functional x (Array.unsafe_get functional x land lnot bit)))
    cm_rows;
  (* An FM row fits the positions that work in every column it needs:
     per word, the AND over those columns' bitsets. [required] holds the
     current row's columns, each as the offset of its bitset. *)
  let bits = Array.make (Array.length fm_rows * words) 0 in
  let required = Array.make cols 0 and n_required = ref 0 in
  Array.iteri
    (fun i fm_row ->
      n_required := 0;
      Bmatrix.iter_row_set fm fm_row (fun j ->
          required.(!n_required) <- j * words;
          incr n_required);
      for w = 0 to words - 1 do
        let fit = ref (if w = words - 1 then Bits.tail_mask m else -1) in
        for x = 0 to !n_required - 1 do
          fit := !fit land Array.unsafe_get functional (Array.unsafe_get required x + w)
        done;
        bits.((i * words) + w) <- !fit
      done)
    fm_rows;
  { words; bits }

let first_fit { words; bits } i ~blocked =
  let rec go w =
    if w = words then -1
    else
      let open_ = bits.((i * words) + w) land lnot blocked.(w) in
      if open_ = 0 then go (w + 1) else (w * Bits.word_bits) + Bits.ctz open_
  in
  go 0

let assign ~fm ~fm_rows ~cm ~cm_rows =
  Telemetry.count "matching.solves";
  if Bmatrix.cols fm <> Bmatrix.cols cm then
    invalid_arg "Matching.assign: column count mismatch";
  let fm_rows = Array.of_list fm_rows and cm_rows = Array.of_list cm_rows in
  let n = Array.length fm_rows and m = Array.length cm_rows in
  let fits = fit_sets ~fm ~fm_rows ~cm ~cm_rows in
  (* The lowest position FM row [i] fits that is not in [blocked], added
     to [blocked] before it is returned; -1 when none is left. *)
  let first i blocked =
    let k = first_fit fits i ~blocked in
    if k >= 0 then
      blocked.(Bits.word_of k) <- blocked.(Bits.word_of k) lor (1 lsl Bits.bit_of k);
    k
  in
  let owner = Array.make m (-1) and target = Array.make n (-1) in
  let take i k =
    owner.(k) <- i;
    target.(i) <- k;
    true
  in
  (* Greedy pass: each FM row in turn takes its lowest free fitting
     position. *)
  let taken = Array.make fits.words 0 in
  let leftover =
    List.filter
      (fun i ->
        let k = first i taken in
        not (k >= 0 && take i k))
      (List.init n Fun.id)
  in
  (* One alternating-path search (Kuhn) per leftover row, in ascending
     position. When it fails, the FM rows it reached fit fewer positions
     than there are of them (Hall's condition), so no matching exists. *)
  let visited = Array.make fits.words 0 in
  let rec augment i =
    let k = first i visited in
    k >= 0 && if owner.(k) < 0 || augment owner.(k) then take i k else augment i
  in
  let placed i =
    Array.fill visited 0 fits.words 0;
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
