(** Technology mapping: SOP covers to bounded-fan-in NAND networks.

    This module plays the role the paper assigns to Berkeley ABC "forced to
    use a set of NAND gates (which have fan-in sizes 2 to n)". Each cover is
    factored algebraically ({!Factor}) and the factored form is synthesized
    into a {!Network} with structural sharing. Output polarity is free on
    the crossbar (the INR state inverts results), so the mapper may emit the
    complement of an output and record the fact. *)

type mapped = {
  network : Network.t;
  negated : bool array;
      (** [negated.(k)] means network output [k] carries the complement of
          function output [k]; the crossbar's inversion state fixes it up at
          no area cost. *)
}

type strategy =
  | Quick  (** single-literal division ({!Factor.factor}) — the default *)
  | Kernel  (** kernel extraction ({!Kernel.factor}) — slower, finds
                multi-literal divisors; used by the factoring ablation *)
  | Flat  (** no factoring at all: the raw two-level NAND-NAND form *)

val map_cover : ?strategy:strategy -> ?fanin_limit:int -> Mcx_logic.Cover.t -> mapped
(** Factored multi-level mapping of a single-output function. The fan-in
    limit defaults to [max 2 n_inputs], matching the paper's ABC setup. *)

val map_mo : ?strategy:strategy -> ?fanin_limit:int -> Mcx_logic.Mo_cover.t -> mapped
(** Multi-output mapping into a single shared network; identical
    sub-expressions across outputs share gates via structural hashing. *)

val eval : mapped -> bool array -> bool array
(** Evaluate the mapped function — network evaluation with the recorded
    polarity fix-ups applied, i.e. the original function's outputs. *)
