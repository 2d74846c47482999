(** Cover complementation.

    Needed for the paper's dual optimization (§III, §IV.B: "area cost of the
    logic function and its negation is calculated") and for Table I's
    "Negation of Circuit" columns. *)

val complement : Cover.t -> Cover.t
(** Recursive-Shannon complement (unate recursive paradigm) about the most
    binate variable, on flat word arrays. No result cube contains another,
    and the cubes come sorted stably by literal count, but the cover is not
    minimized; [Minimize.complement_minimized] minimizes it with the
    argument as OFF-set. *)
