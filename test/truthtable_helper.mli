(** Truth-table conversions only the tests use, over the library's
    {!Mcx_logic.Truthtable}: bit [i] of an index is variable [i]. *)

val index_of_assignment : bool array -> int
val assignment_of_index : arity:int -> int -> bool array

val create : arity:int -> (bool array -> bool) -> Mcx_logic.Truthtable.t
(** Tabulate a predicate. @raise Invalid_argument above 22 variables. *)

val eval : Mcx_logic.Truthtable.t -> bool array -> bool
(** @raise Invalid_argument on arity mismatch. *)

val on_count : Mcx_logic.Truthtable.t -> int
val equal : Mcx_logic.Truthtable.t -> Mcx_logic.Truthtable.t -> bool

val to_cover : Mcx_logic.Truthtable.t -> Mcx_logic.Cover.t
(** One minterm cube per ON point, ascending. *)

val random : Mcx_util.Prng.t -> arity:int -> on_bias:float -> Mcx_logic.Truthtable.t
(** Each entry true independently with probability [on_bias], drawn in
    index order. *)
