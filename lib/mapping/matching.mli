(** Row matching between function and crossbar matrices (§IV.B).

    A crossbar matrix (CM) entry is 1 for a functional switch and 0 for a
    stuck-open one. An FM row fits a CM row when every required switch (FM
    1) lands on a functional junction (CM 1); FM 0 entries accept both,
    because a stuck-open junction behaves exactly like a disabled one. *)

val cm_of_defects : Mcx_crossbar.Defect_map.t -> Mcx_util.Bmatrix.t
(** Crossbar matrix of a defect map: 1 = functional. One
    complement-of-union of the map's stuck-open and stuck-closed planes
    per word, so it costs a pass over the packed words, not a call per
    junction. Stuck-closed junctions also read 0 here; use {!Redundant}
    when closed defects are in play, since they additionally poison whole
    lines. *)

val row_matches :
  fm:Mcx_util.Bmatrix.t -> fm_row:int -> cm:Mcx_util.Bmatrix.t -> cm_row:int -> bool
(** The paper's element-by-element row-matching rule. @raise
    Invalid_argument when column counts differ or indices are out of
    range. *)

type fit_sets = private {
  words : int;  (** ints per bitset: [Bits.words_for] of the CM row count *)
  bits : int array;  (** the bitsets, entry [i] at [i * words] *)
}
(** One bitset over CM-row positions per FM row. *)

val fit_sets :
  fm:Mcx_util.Bmatrix.t ->
  fm_rows:int array ->
  cm:Mcx_util.Bmatrix.t ->
  cm_rows:int array ->
  fit_sets
(** [fit_sets ~fm ~fm_rows ~cm ~cm_rows]: bit [k] of entry [i] is set iff
    FM row [fm_rows.(i)] fits CM row [cm_rows.(k)] ({!row_matches});
    padding bits past the last position are clear. Built in two passes:
    each CM row's clear cells take its position out of a per-column
    bitset, then each FM row's fit set is the AND of those bitsets over
    its set cells. Cost: O(m c / 63 + d + n r m / 63) word operations for
    [n] FM rows with [r] set cells each, [m] CM rows, [c] columns and [d]
    clear CM cells. The builder behind both {!assign} and [Hybrid].
    @raise Invalid_argument when column counts differ or a row index is out
    of range. *)

val first_fit : fit_sets -> int -> blocked:int array -> int
(** [first_fit f i ~blocked] is the lowest position in entry [i]'s fit
    set whose bit is clear in [blocked] (a bitset of [f.words] ints), or
    -1 when there is none: a word scan. *)

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
    Cost: one {!fit_sets} build, then O(n m{^ 2} / 63) word operations
    at worst for the search. Counts [matching.solves] once per call.
    @raise Invalid_argument when column counts differ or a row index is out
    of range. *)

val check_assignment :
  fm:Mcx_util.Bmatrix.t -> cm:Mcx_util.Bmatrix.t -> int array -> bool
(** [check_assignment ~fm ~cm a]: [a] maps every FM row to a distinct CM
    row and every mapping satisfies {!row_matches} — the post-condition of
    both mapping algorithms. *)
