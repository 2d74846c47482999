(** Row matching between function and crossbar matrices (§IV.B).

    A crossbar matrix (CM) entry is 1 for a functional switch and 0 for a
    stuck-open one. An FM row fits a CM row when every required switch (FM
    1) lands on a functional junction (CM 1); FM 0 entries accept both,
    because a stuck-open junction behaves exactly like a disabled one. *)

val cm_of_defects : Mcx_crossbar.Defect_map.t -> Mcx_util.Bmatrix.t
(** Crossbar matrix of a defect map: 1 = functional. Stuck-closed junctions
    also read 0 here; use {!Redundant} when closed defects are in play,
    since they additionally poison whole lines. *)

val row_matches :
  fm:Mcx_util.Bmatrix.t -> fm_row:int -> cm:Mcx_util.Bmatrix.t -> cm_row:int -> bool
(** The paper's element-by-element row-matching rule. @raise
    Invalid_argument when column counts differ or indices are out of
    range. *)

val assign :
  fm:Mcx_util.Bmatrix.t ->
  fm_rows:int list ->
  cm:Mcx_util.Bmatrix.t ->
  cm_rows:int list ->
  int array option
(** [assign ~fm ~fm_rows ~cm ~cm_rows] places every row of [fm_rows] on a
    distinct row of [cm_rows] that it fits: [Some a] with [a.(k)] the CM
    row of the [k]-th FM row, or [None] when no placement exists.

    The paper asks Munkres for a zero-cost assignment on the 0/1 matching
    matrix of Fig. 8(c). Such an assignment is exactly a matching of the
    "FM row fits CM row" bipartite graph that covers every FM row, so
    [assign] decides the paper's criterion exactly, and [None] proves
    infeasibility. Tie-break: each FM row in turn takes the first free
    fitting row of [cm_rows]; each row left over then gets one
    alternating-path search that tries fitting rows in [cm_rows] order.
    Fit sets are word-parallel bitsets: O(n m{^ 2} / 63) word operations
    at worst. Counts [matching.solves] once per call.
    @raise Invalid_argument when column counts differ or a row index is out
    of range. *)

val check_assignment :
  fm:Mcx_util.Bmatrix.t -> cm:Mcx_util.Bmatrix.t -> int array -> bool
(** [check_assignment ~fm ~cm a]: [a] maps every FM row to a distinct CM
    row and every mapping satisfies {!row_matches} — the post-condition of
    both mapping algorithms. *)
