(** The former {!Mcx_logic.Complement}: recursive Shannon expansion about
    the most binate variable over cube lists, each node's cubes cleaned by
    {!Mcx_logic.Cover.single_cube_containment}. The differential oracle
    for the library's complement. *)

val complement : Mcx_logic.Cover.t -> Mcx_logic.Cover.t
