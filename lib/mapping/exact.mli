(** The exact mapping algorithm (EA) the paper compares against.

    "The exact algorithm constructs the matching matrix for all minterms
    and output rows of FM and then applies the assignment method" — a full
    bipartite feasibility test: a valid mapping exists if and only if the
    minimum-cost assignment over the complete matching matrix is 0, that
    is, if and only if the fit graph has a matching covering every FM row.
    {!Matching.assign} decides the latter directly; the assignment
    returned follows its tie-break. *)

val map : Mcx_crossbar.Function_matrix.t -> Mcx_util.Bmatrix.t -> int array option
(** Complete search: [None] proves that no row assignment is valid.
    @raise Invalid_argument if [cm] is smaller than the FM or has a
    different column count. *)

val feasible : Mcx_crossbar.Function_matrix.t -> Mcx_util.Bmatrix.t -> bool

val map_matrix : Mcx_util.Bmatrix.t -> Mcx_util.Bmatrix.t -> int array option
(** Matrix-level core of {!map}, for FMs that do not come from a two-level
    {!Mcx_crossbar.Function_matrix} (e.g. the multi-level extension). *)
