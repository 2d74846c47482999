(** Minimum-cost assignment (Munkres 1957): the reference the matcher is
    tested against.

    The paper assigns output rows (hybrid) or all rows (exact) to crossbar
    lines by "choosing which Oi is mapped to Hk yielding a zero cost ...
    This is an exact algorithm which means if a zero cost is possible, it
    will be found". The library decides that criterion with
    {!Mcx_mapping.Matching.assign}; this weighted solver, run on the 0/1
    matching matrix, is the independent oracle for its verdicts.

    Implemented as the O(n^2 m) shortest-augmenting-path formulation
    (Jonker–Volgenant), which computes the same optimum as Munkres'
    original primal-dual method. *)

val solve : int array array -> int * int array
(** [solve cost] for an n x m matrix with n <= m returns the minimum total
    cost and the optimal assignment [a] with [a.(i)] the column of row [i]
    (columns pairwise distinct). @raise Invalid_argument if [n > m], the
    matrix is ragged or empty rows are present with n > 0. *)

val feasible_zero : int array array -> int array option
(** [feasible_zero cost] is the assignment when the optimum is exactly 0 —
    the paper's validity criterion — and [None] otherwise. *)
