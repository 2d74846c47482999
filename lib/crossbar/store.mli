(** The junction grid both crossbar state machines ({!Sim}'s and
    {!Multilevel}'s) run on, generic over what a junction holds: a Boolean
    for one computation, or a BDD over the inputs for all of them at once.
    The defect semantics of §IV.A and the upset hook live in {!write}. *)

type 'v domain = {
  const : bool -> 'v;
  lit : int -> bool -> 'v;  (** [lit i pol]: variable [i], complemented unless [pol] *)
  not_ : 'v -> 'v;
  for_all : (int -> 'v) -> int array -> 'v;  (** conjunction; the Boolean one short-circuits *)
}

type 'v t

val create :
  name:string -> ?defects:Defect_map.t -> ?upset:(unit -> bool) -> 'v domain -> rows:int ->
  cols:int -> 'v t
(** [defects] defaults to all-functional. @raise Invalid_argument, prefixed
    by [name], on a dimension mismatch. *)

val initialize : 'v t -> unit
(** INA: write R_OFF (logic 1) to every junction, row by row. *)

val write : 'v t -> int -> int -> 'v -> unit
(** Count one write and draw [upset] (complementing the value when it
    fires); a stuck junction keeps {!Junction.reset_value}. *)

val writes : 'v t -> int
val row_nand : 'v t -> int -> int array -> 'v
val col_and : 'v t -> int -> int array -> 'v

val booleans : name:string -> n_inputs:int -> bool array -> bool domain
(** @raise Invalid_argument, prefixed by [name], on an arity mismatch. *)

val agrees : Mcx_logic.Mo_cover.t -> (Mcx_logic.Bdd.t domain -> Mcx_logic.Bdd.t array) -> bool
(** Run a machine once over BDDs of a fresh manager; compare each output
    with the cover's. *)
