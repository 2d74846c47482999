(** The former per-cell mapping core: {!Mcx_mapping.Matching.assign}
    building its fit sets with one [Bmatrix.get] per junction, the former
    {!Mcx_mapping.Hybrid.map_rows}, which rescans the crossbar rows with
    [row_matches] for every placement and backtrack, and
    {!Mcx_mapping.Redundant.map} over a crossbar matrix restricted one
    junction at a time. The differential references for the fit-set
    rewrite: same answers, same assignments, same counters. *)

val assign :
  fm:Mcx_util.Bmatrix.t ->
  fm_rows:int list ->
  cm:Mcx_util.Bmatrix.t ->
  cm_rows:int list ->
  int array option

val hybrid_map_rows :
  ?order:Mcx_mapping.Hybrid.order ->
  fm:Mcx_util.Bmatrix.t ->
  greedy_rows:int list ->
  assignment_rows:int list ->
  Mcx_util.Bmatrix.t ->
  int array option * Mcx_mapping.Hybrid.stats

val hybrid_map_with_stats :
  ?order:Mcx_mapping.Hybrid.order ->
  Mcx_crossbar.Function_matrix.t ->
  Mcx_util.Bmatrix.t ->
  int array option * Mcx_mapping.Hybrid.stats

val redundant_map :
  prng:Mcx_util.Prng.t ->
  algorithm:[ `Hybrid | `Exact ] ->
  Mcx_crossbar.Function_matrix.t ->
  Mcx_crossbar.Defect_map.t ->
  Mcx_mapping.Redundant.placement option
(** Eight attempts, as {!Mcx_mapping.Redundant.map} by default. *)
