open Mcx_logic

type params = {
  n_inputs : int;
  n_outputs : int;
  n_products : int;
  inclusion_ratio : float;
  seed : string;
  skew : float;
}

let area p = (p.n_products + p.n_outputs) * ((2 * p.n_inputs) + (2 * p.n_outputs))

let planned_switches p =
  int_of_float (Float.round (p.inclusion_ratio /. 100. *. float_of_int (area p)))

(* Split a switch budget between cube literals and product-output
   connections, respecting per-row minima (1 each) and maxima (I literals,
   O connections). The split is proportional to the maxima so dense
   many-output benchmarks (exp5) lean on connections and wide single-output
   ones on literals. *)
let split_budget p total =
  let pn = p.n_products in
  let min_lit = pn and max_lit = pn * p.n_inputs in
  let min_conn = pn and max_conn = pn * p.n_outputs in
  if total < min_lit + min_conn then (min_lit, min_conn)
  else if total > max_lit + max_conn then (max_lit, max_conn)
  else begin
    let lit_share =
      float_of_int total *. float_of_int max_lit /. float_of_int (max_lit + max_conn)
    in
    let lit = max min_lit (min max_lit (int_of_float (Float.round lit_share))) in
    let conn = max min_conn (min max_conn (total - lit)) in
    (* Re-balance when clamping the connections lost part of the budget. *)
    let lit = max min_lit (min max_lit (total - conn)) in
    (lit, conn)
  end

(* Deal [total] units to [n] rows, each within [lo..hi]. With zero skew the
   split is near-uniform; with positive skew the budget follows an
   exponential ramp over the row index so a heavy tail of big rows appears
   (rounding errors land in the largest rows, within bounds). *)
let distribute ~skew ~total ~n ~lo ~hi =
  if n = 0 then [||]
  else begin
    let weight i = exp (4. *. skew *. float_of_int i /. float_of_int (max 1 (n - 1))) in
    let weight_sum = ref 0. in
    for i = 0 to n - 1 do
      weight_sum := !weight_sum +. weight i
    done;
    let out =
      Array.init n (fun i ->
          let share = float_of_int total *. weight i /. !weight_sum in
          max lo (min hi (int_of_float (Float.round share))))
    in
    (* Repair the rounding drift against the requested total. *)
    let current = Array.fold_left ( + ) 0 out in
    let drift = ref (total - current) in
    let step = if !drift > 0 then 1 else -1 in
    let i = ref (n - 1) in
    while !drift <> 0 && !i >= 0 do
      let candidate = out.(!i) + step in
      if candidate >= lo && candidate <= hi then begin
        out.(!i) <- candidate;
        drift := !drift - step
      end
      else decr i
    done;
    out
  end

let generate p =
  if p.n_inputs <= 0 || p.n_outputs <= 0 || p.n_products <= 0 then
    invalid_arg "Synthetic.generate: counts must be positive";
  let prng =
    Mcx_util.Prng.of_key
      Mcx_util.Prng.Key.(
        int
          (int (int (string (root 0) p.seed) p.n_inputs) p.n_outputs)
          p.n_products)
  in
  let lit_total, conn_total = split_budget p (max 0 (planned_switches p - (2 * p.n_outputs))) in
  let lits_per_row =
    distribute ~skew:p.skew ~total:lit_total ~n:p.n_products ~lo:1 ~hi:p.n_inputs
  in
  let conns_per_row =
    distribute ~skew:p.skew ~total:conn_total ~n:p.n_products ~lo:1 ~hi:p.n_outputs
  in
  let seen = Cube.Tbl.create (2 * p.n_products) in
  (* Polarity bias rises with the skew: real PLAs' big products cluster on
     overlapping literal-column supports (think parity blocks), and it is
     that competition for the same functional crossbar rows — not the row
     weight alone — that drives mapping failures. *)
  let positive_bias = 0.5 +. (0.48 *. p.skew) in
  let random_cube n_literals =
    let vars = Mcx_util.Prng.sample_without_replacement prng ~k:n_literals ~n:p.n_inputs in
    let lits = Array.make p.n_inputs Literal.Absent in
    List.iter
      (fun v ->
        lits.(v) <-
          (if Mcx_util.Prng.bernoulli prng positive_bias then Literal.Pos else Literal.Neg))
      vars;
    Cube.of_literals lits
  in
  let rec fresh_cube n_literals attempts =
    let c = random_cube n_literals in
    if Cube.Tbl.mem seen c && attempts < 100 then fresh_cube n_literals (attempts + 1)
    else begin
      Cube.Tbl.replace seen c ();
      c
    end
  in
  (* Round-robin output membership so every output is hit at least once
     when the product count allows, then random extras per row. *)
  let rows =
    List.init p.n_products (fun i ->
        let cube = fresh_cube lits_per_row.(i) 0 in
        let outputs = Array.make p.n_outputs false in
        outputs.(i mod p.n_outputs) <- true;
        let extras = conns_per_row.(i) - 1 in
        let pool =
          Mcx_util.Prng.sample_without_replacement prng ~k:(min extras (p.n_outputs - 1))
            ~n:(p.n_outputs - 1)
        in
        List.iter
          (fun off ->
            (* skip over the already-set output *)
            let k = if off >= i mod p.n_outputs then off + 1 else off in
            outputs.(k) <- true)
          pool;
        { Mo_cover.cube; outputs })
  in
  Mo_cover.create ~share:false ~n_inputs:p.n_inputs ~n_outputs:p.n_outputs rows
