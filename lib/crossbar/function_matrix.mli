(** The function matrix (FM) of §IV.B: "a representation of a logic function
    in sum-of-products form. If an input occurs in a minterm, it is denoted
    with 1; otherwise 0".

    Rows are the products followed by the outputs (plus an optional leading
    input-latch row); columns follow {!Geometry}. Product rows carry their
    literals plus one AND-plane connection per member output; output rows
    carry the result pair of their output. *)

type t = {
  geometry : Geometry.t;
  matrix : Mcx_util.Bmatrix.t;  (** 1 = a switch the design needs functional *)
  cover : Mcx_logic.Mo_cover.t;  (** the function the matrix encodes *)
}

val build : ?include_il_row:bool -> Mcx_logic.Mo_cover.t -> t
(** Construct the FM of a cover. Row order: products in cover order, then
    outputs; the IL row (when requested) is row 0. *)

val output_row_indices : t -> int list
(** FM rows holding outputs (the paper's FMo), ascending. *)

val pp : Format.formatter -> t -> unit
