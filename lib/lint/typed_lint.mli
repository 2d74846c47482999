(** Typed rules over the Typedtree recovered from [.cmt] files: banned
    values (randomness, clocks, polymorphic hashing, environment and host
    reads, stdout/stderr printing, [Obj.magic]) matched by resolved path
    with module aliases expanded, polymorphic comparison instantiated at
    packed types, and float sorts with the polymorphic comparator. *)

val run : file:string -> modname:string -> Typedtree.structure -> Finding.t list
(** [modname] is the compilation-unit name from the cmt; inside [Cube]
    and [Bmatrix] themselves the bare type [t] counts as packed. *)
