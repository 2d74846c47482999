(** Stats-matched synthetic PLAs.

    For benchmarks whose functional definition is not public (misex1, bw,
    con1, b12, t481, cordic, sao2, ex1010, table3, misex3c, exp5, apex4,
    alu4) the defect-tolerance experiments only depend on the function
    matrix's shape: its dimensions (I, O, P) and its switch density (the
    inclusion ratio IR). Table II publishes exactly those statistics, so a
    deterministic generator that reproduces them reproduces the mapping
    difficulty distribution. See DESIGN.md §3 for the substitution
    argument. *)

type params = {
  n_inputs : int;
  n_outputs : int;
  n_products : int;
  inclusion_ratio : float;  (** target IR in percent, e.g. 19.0 *)
  seed : string;
      (** per-benchmark stream label, mixed into a full-width
          {!Mcx_util.Prng.Key} together with (I, O, P) *)
  skew : float;
      (** row-weight skew in [0, 1]: 0 spreads the switch budget uniformly
          over the product rows; larger values concentrate it on a heavy
          tail, as real PLAs do. Heavy rows dominate the mapping failure
          probability, so this is the knob that calibrates a synthetic
          benchmark's Table II success rate at fixed (I, O, P, IR). *)
}

val generate : params -> Mcx_logic.Mo_cover.t
(** A cover with exactly [n_products] distinct product rows whose switch
    count approximates [inclusion_ratio] x area. Every product belongs to
    at least one output, every output receives at least one product (when
    [n_products >= 1]), and every cube carries at least one literal.
    @raise Invalid_argument when the parameters are not satisfiable
    (e.g. IR requiring more literals than 2I per row). *)
