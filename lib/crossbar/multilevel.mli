(** The paper's multi-level crossbar design (§III, Fig. 4/5).

    One horizontal line per NAND gate plus an output-latch row; vertical
    lines are the 2I input literals, one multi-level connection column per
    inner gate (a gate whose output feeds another gate), and the result
    pair per output. Gates are evaluated one by one — the CR state copies a
    finished row's result into the connection column junctions of its
    consumer rows — so a single crossbar realizes a multi-level network at
    the price of serialized evaluation. *)

type t = {
  mapped : Mcx_netlist.Tech_map.mapped;
  rows : int;  (** G + 1 *)
  cols : int;  (** 2I + C + 2O *)
  conn_col_of_gate : int option array;  (** inner gates' connection column *)
  program : Mcx_util.Bmatrix.t;
  row_assignment : int array;  (** logical row -> physical row *)
  physical_rows : int;
  physical_cols : int;
}

val place : ?row_assignment:int array -> ?physical_rows:int -> Mcx_netlist.Tech_map.mapped -> t
(** Build the multi-level layout. [row_assignment] maps logical rows (gates
    in id order, then the latch row) to physical rows — the hook the
    defect-tolerant multi-level mapping extension uses.
    @raise Invalid_argument on malformed assignments. *)

val area : t -> int

val function_matrix : t -> Mcx_util.Bmatrix.t
(** The logical required-switch matrix (rows in logical order) — the FM the
    defect-tolerant extension feeds to the matching algorithms. *)

val run : ?defects:Defect_map.t -> t -> bool array -> bool array
(** Simulate one computation: INA, RI, then per gate in topological order
    CFM/EVM/CR, then INR and SO, on {!Sim}'s junction store and defect
    semantics. *)

val run_counting : ?defects:Defect_map.t -> t -> bool array -> bool array * int
(** Like {!run}, also reporting memristor write events (agrees with
    {!Cost.multi_level_writes} by test). *)

val run_with_upsets :
  ?defects:Defect_map.t ->
  prng:Mcx_util.Prng.t ->
  upset_rate:float ->
  t ->
  bool array ->
  bool array
(** Transient write-upset simulation, as {!Sim.run_with_upsets}. *)

val agrees_with_reference : ?defects:Defect_map.t -> t -> Mcx_logic.Mo_cover.t -> bool
(** [run] equals the reference cover on every input, at any arity: as in
    {!Sim.agrees_with_reference}, the CR machine runs once over BDDs, whose
    size can grow exponentially. *)
