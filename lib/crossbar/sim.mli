(** Cycle-accurate functional simulation of the two-level crossbar.

    Executes the seven-state computation of Fig. 2(b) — INA, RI, CFM, EVM,
    EVR, INR, SO — on a placed design, junction by junction, under the
    Snider convention (R_ON = 0, R_OFF = 1) and the defect semantics of
    §IV.A: stuck-open junctions always read 1 (like disabled ones),
    stuck-closed junctions always read 0 and therefore force any NAND row
    they touch to 1 and any AND column to 0.

    One interpreter runs the states over Booleans for one computation
    ({!run}) or over BDDs for all of them at once
    ({!agrees_with_reference}), on the junction store {!Multilevel} shares;
    the defect semantics sit in the store's write path only. *)

type step = INA | RI | CFM | EVM | EVR | INR | SO

val step_sequence : step list
(** The fixed state order of one computation. *)

val run : ?defects:Defect_map.t -> Layout.t -> bool array -> bool array
(** Compute all outputs for one input assignment. [defects] defaults to an
    all-functional map. @raise Invalid_argument on arity or dimension
    mismatch. *)

val run_counting : ?defects:Defect_map.t -> Layout.t -> bool array -> bool array * int
(** Like {!run} but also reports the number of memristor write events of
    the computation (the energy proxy of {!Cost.two_level_writes}; the two
    agree by construction and by test). *)

val run_with_upsets :
  ?defects:Defect_map.t ->
  prng:Mcx_util.Prng.t ->
  upset_rate:float ->
  Layout.t ->
  bool array ->
  bool array
(** Transient-fault simulation: each memristor write independently stores
    the complemented value with probability [upset_rate] (a write upset).
    Permanent defects compose with upsets; stuck junctions are immune
    since their state cannot change. *)

val agrees_with_reference : ?defects:Defect_map.t -> Layout.t -> bool
(** [run] equals the cover's semantics on every input, at any arity: the
    states run once over BDDs, whose size can grow exponentially. *)
