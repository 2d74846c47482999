(** The former {!Mcx_crossbar.Defect_map}: one byte per junction (0
    functional, 1 stuck-open, 2 stuck-closed), read and written one
    junction at a time. The differential reference for the bit-plane
    map: the same draw, digest and counts. *)

type t

val create : rows:int -> cols:int -> t
val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> Mcx_crossbar.Junction.defect
val set : t -> int -> int -> Mcx_crossbar.Junction.defect -> unit

val random :
  Mcx_util.Prng.t -> rows:int -> cols:int -> open_rate:float -> closed_rate:float -> t
(** One [Prng.float] per junction in row-major order: stuck-open below
    [open_rate], stuck-closed below [open_rate +. closed_rate]. *)

val count : t -> Mcx_crossbar.Junction.defect -> int

val digest : t -> string
(** Hex MD5 of ["<rows>x<cols>:"] followed by the byte grid. *)

val cm : t -> Mcx_util.Bmatrix.t
(** The crossbar matrix, one junction at a time: 1 = functional. *)
