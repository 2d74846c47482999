(** Naive reference kernels — the differential-test oracle for the
    packed representations.

    Cube operations work on bare [Literal.t array]s, matrix operations on
    [bool array array]s, one element at a time. [oracle.ml] checks
    {!Mcx_logic.Cube} and {!Mcx_util.Bmatrix} against these on
    randomized inputs. Keep this module slow and obvious — its value is
    independence from the packed representation. *)

open Mcx_logic

type cube = Literal.t array

val of_cube : cube -> Cube.t
val to_cube : Cube.t -> cube

val num_literals : cube -> int
val covers : cube -> cube -> bool
val intersect : cube -> cube -> cube option
val distance : cube -> cube -> int
val supercube : cube -> cube -> cube
val merge_adjacent : cube -> cube -> cube option
val cofactor : cube -> var:int -> value:bool -> cube option
val cofactor_wrt : cube -> cube -> cube option
val eval : cube -> bool array -> bool

val single_cube_containment : cube list -> cube list
(** Mirrors [Cover.single_cube_containment]'s stable ascending-literal
    sweep, so result lists are comparable cube-for-cube. *)

val tautology : arity:int -> cube list -> bool
(** Unate-recursive tautology on the naive representation. *)

type bmatrix = bool array array

val of_bmatrix : bmatrix -> Mcx_util.Bmatrix.t

val row_subset : bmatrix -> int -> bmatrix -> int -> bool
val row_intersects : bmatrix -> int -> bmatrix -> int -> bool
val row_count : bmatrix -> int -> int
