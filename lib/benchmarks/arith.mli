(** Arithmetic benchmark circuits with public functional definitions.

    These are the members of the paper's MCNC/IWLS93 suite whose behaviour
    is documented (or standard): they are regenerated here from first
    principles as truth tables and minimized with the in-repo
    Quine–McCluskey engine, giving real multi-output PLAs rather than
    synthetic stand-ins. Product counts can differ slightly from the 1993
    espresso results the paper used; EXPERIMENTS.md records both. *)

val rd53 : unit -> Mcx_logic.Mo_cover.t
(** 5 inputs, 3 outputs: the binary weight (number of ones) of the input. *)

val rd73 : unit -> Mcx_logic.Mo_cover.t
(** 7 inputs, 3 outputs: binary weight. *)

val rd84 : unit -> Mcx_logic.Mo_cover.t
(** 8 inputs, 4 outputs: binary weight. *)

val sqrt8 : unit -> Mcx_logic.Mo_cover.t
(** 8 inputs, 4 outputs: floor of the integer square root. *)

val squar5 : unit -> Mcx_logic.Mo_cover.t
(** 5 inputs, 8 outputs: bits 2..9 of the square (bit 0 equals the input's
    bit 0 and bit 1 is constant 0, so the benchmark keeps the 8
    non-trivial bits, matching the historical .o 8). *)

val clip : unit -> Mcx_logic.Mo_cover.t
(** 9 inputs, 5 outputs: a signed clipper — the two's-complement input is
    saturated into the 5-bit range [-16, 15] (stand-in definition for the
    undocumented MCNC "clip"; same I/O signature). *)

val inc : unit -> Mcx_logic.Mo_cover.t
(** 7 inputs, 9 outputs: the affine arithmetic 3x + 1 (stand-in definition
    for the undocumented MCNC "inc"; same I/O signature). *)

val t481 : unit -> Mcx_logic.Mo_cover.t
(** 16 inputs, 1 output: the conjunction of 8 pairwise XORs — a structured
    stand-in for the MCNC t481 with the same I/O and the same Table I
    signature: an exponential minimal SOP (256 products here, 481 in the
    original) but a tiny multi-level network. *)

val t481_negation : unit -> Mcx_logic.Mo_cover.t
(** The exact complement of {!t481}: a disjunction of 8 XNORs — 16 products
    of 2 literals. *)

val cordic : unit -> Mcx_logic.Mo_cover.t
(** 23 inputs, 2 outputs: two disjoint 10-variable parities (a structured
    stand-in for the MCNC cordic kernel with the same I/O and Table I
    signature: about a thousand two-level products per the pair, versus a
    small XOR-tree multi-level network). *)

val cordic_negation : unit -> Mcx_logic.Mo_cover.t
(** The exact output-wise complement of {!cordic} (the even parities). *)

val count_ones : int -> int
(** Helper: population count used by the rdXX family (exposed for tests). *)
