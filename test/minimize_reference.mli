(** The former two-level minimizers: espresso's EXPAND proved each raise
    by a tautology check of the ON-set, REDUCE complemented each cube's
    cofactor of the other cubes to take its supercube, and joint
    minimization asked the input's per-output covers by tautology. The
    differential oracle for {!Mcx_logic.Minimize} and
    {!Mcx_logic.Mo_minimize}. *)

val expand : Mcx_logic.Cover.t -> Mcx_logic.Cover.t
(** Raise literals in variable order while a tautology sweep of the cover
    covers the half each raise adds, fewest-minterm cubes first; then
    single-cube containment. *)

val reduce : Mcx_logic.Cover.t -> Mcx_logic.Cover.t
(** Each cube, most minterms first, becomes itself times the supercube of
    {!Mcx_logic.Complement.complement} of the other cubes' cofactor by it,
    and later cubes reduce against the reduced ones. *)

val espresso : Mcx_logic.Cover.t -> Mcx_logic.Cover.t
(** The loop of {!Mcx_logic.Minimize.espresso} over the two above and the
    library's irredundant. *)

val complement_minimized : Mcx_logic.Cover.t -> Mcx_logic.Cover.t
(** {!Mcx_logic.Complement.complement}, then {!espresso}. *)

val minimize_joint : Mcx_logic.Mo_cover.t -> Mcx_logic.Mo_cover.t
(** Joint minimization whose expansions ask a tautology sweep of each
    output's input cover. *)
