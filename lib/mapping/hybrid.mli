(** The paper's hybrid mapping methodology (Algorithm 1, HBA).

    Product (minterm) rows are matched greedily top-to-bottom against
    crossbar rows, with depth-1 backtracking: when a product row fits no
    unmatched crossbar row, already-matched crossbar rows are considered
    and their current owner is relocated to an unmatched row if possible.
    Output rows — where a single defect might discard a whole output — are
    then assigned exactly over the remaining crossbar rows with
    {!Matching.assign}, which decides the paper's zero-cost Munkres
    criterion.

    Every product row's fit set — the crossbar rows it fits — is built
    once, as a bitset, by {!Matching.fit_sets}. The greedy pass takes the
    lowest free fitting row by a word scan; backtracking walks the row's
    fit set in ascending order. Both visit the crossbar rows in the order
    of the paper's row-by-row scan: the lowest free fitting row is the
    first the scan would accept, and a row that fits no free row has only
    owned fitting rows, which the scan meets in ascending order. So the
    assignments and the [backtracks]/[relocations] counts are the scan's;
    only the cost per placement falls, from a row test per crossbar row
    to a word operation per 63 of them. *)

type stats = {
  backtracks : int;  (** products that needed the relocation step *)
  relocations : int;  (** successful owner moves during backtracking *)
}

type order =
  | Top_down  (** FM row order, as Algorithm 1 is written — the default *)
  | Hardest_first
      (** greedy rows sorted by descending switch count: placing the most
          constrained products first reduces dead-end first-fits. The
          ablation experiment quantifies the gain. *)

val map :
  ?order:order -> Mcx_crossbar.Function_matrix.t -> Mcx_util.Bmatrix.t -> int array option
(** [map fm cm] returns a complete FM-row to CM-row assignment, or [None]
    when the heuristic fails (which does not prove infeasibility — see
    {!Exact}). @raise Invalid_argument if [cm] has fewer rows than the FM
    or a different column count. *)

val map_with_stats :
  ?order:order ->
  Mcx_crossbar.Function_matrix.t ->
  Mcx_util.Bmatrix.t ->
  int array option * stats

val map_rows :
  ?order:order ->
  fm:Mcx_util.Bmatrix.t ->
  greedy_rows:int list ->
  assignment_rows:int list ->
  Mcx_util.Bmatrix.t ->
  (int array option * stats)
(** Matrix-level core: [greedy_rows] are matched first-fit with
    backtracking, [assignment_rows] exactly via {!Matching.assign} over the
    leftover crossbar rows. The two lists must partition the FM's rows. Used
    directly by the multi-level defect-tolerance extension, whose FM does
    not come from a two-level {!Mcx_crossbar.Function_matrix}. *)
