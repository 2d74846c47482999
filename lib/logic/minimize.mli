(** Heuristic two-level minimization (an "espresso-lite").

    Implements the classic EXPAND / IRREDUNDANT / REDUCE loop over
    {!Cover.t}. The caller knows the function's OFF-set, and EXPAND tests
    each raise against it; IRREDUNDANT asks {!Tautology}'s sweep whether
    the other cubes cover a cube, and REDUCE asks it for the smallest cube
    containing what they miss. This is the substitute for the two-level
    front of the paper's EDA flow: it produces the product counts P that
    drive the crossbar area model. The result is functionally equal to the
    input (property-tested) but generally not minimum. *)

val expand : off:Cover.t -> Cover.t -> Cover.t
(** [expand ~off f] raises literals of each cube of [f] to don't-care, in
    variable order, while the cube meets no cube of [off], fewest-minterm
    cubes first; then removes single-cube-contained cubes. [off] must be
    exactly the complement of [f]. @raise Invalid_argument on arity
    mismatch. *)

val irredundant : Cover.t -> Cover.t
(** Greedily drop cubes covered by the rest of the cover. *)

val reduce : Cover.t -> Cover.t
(** Shrink each cube to the smallest cube containing its essential part
    (the part not covered by other cubes), enabling the next expand to move
    out of local minima. *)

val espresso : off:Cover.t -> Cover.t -> Cover.t
(** [espresso ~off f] iterates expand/irredundant/reduce on [f] until the
    (cube count, literal count) cost stops improving. [off] must be
    exactly the complement of [f]. @raise Invalid_argument on arity
    mismatch. *)

val complement_minimized : Cover.t -> Cover.t
(** {!Complement.complement} followed by {!espresso}, whose OFF-set is the
    argument itself. {!Mo_cover.complement} negates outputs of more than 14
    inputs this way; the Suite's negated covers come from
    [Suite.negated_cover] (QM up to 14 inputs, or explicit and synthetic
    negations). *)
