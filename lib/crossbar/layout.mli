(** A two-level design placed on a physical crossbar.

    Separates the logical function matrix from physics: a row assignment
    maps each FM row to a physical horizontal line (the identity on a
    pristine optimum-size crossbar; a permutation chosen by the mapping
    algorithms on a defective one; an injection into a larger line set when
    spare rows are provisioned). Columns may likewise be re-targeted for
    the redundancy extension. *)

type t = {
  fm : Function_matrix.t;
  physical_rows : int;
  physical_cols : int;
  row_assignment : int array;  (** FM row index -> physical row *)
  col_assignment : int array;  (** FM column index -> physical column *)
  program : Mcx_util.Bmatrix.t;  (** active switches on the physical grid *)
}

val place :
  ?row_assignment:int array ->
  ?col_assignment:int array ->
  ?physical_rows:int ->
  ?physical_cols:int ->
  Function_matrix.t ->
  t
(** Place an FM. Defaults: identity assignments on an exactly-sized
    crossbar. @raise Invalid_argument if an assignment is not injective,
    out of range, or of the wrong length, or the physical grid is smaller
    than required. *)

val of_cover : ?include_il_row:bool -> Mcx_logic.Mo_cover.t -> t
(** Convenience: FM construction + identity placement. *)

val physical_row_of_fm_row : t -> int -> int

val respects : t -> Defect_map.t -> bool
(** True when every required switch lands on a functional junction and no
    used line carries a stuck-closed defect — the validity condition of the
    paper's defect-tolerant mapping. @raise Invalid_argument if the defect
    map's dimensions differ from the physical grid. *)
