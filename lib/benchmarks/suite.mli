(** The benchmark registry: every circuit named in Table I or Table II of
    the paper, with its published statistics for paper-vs-measured
    reporting.

    Circuits with public definitions are rebuilt exactly ({!Arith}); the
    rest are stats-matched synthetics ({!Synthetic}). Covers are memoized —
    building rd84 or clip runs the QM minimizer once per process. *)

type source =
  | Arithmetic of (unit -> Mcx_logic.Mo_cover.t)
  | Synthetic of Synthetic.params

type paper_data = {
  two_level_area : int option;  (** Table II "Area Cost" (corrected typos) *)
  inclusion_ratio : float option;  (** Table II IR, percent *)
  psucc_hba : float option;  (** Table II success rate of HBA, percent *)
  psucc_ea : float option;  (** Table II success rate of EA, percent *)
  table1 : (int * int * int * int) option;
      (** Table I (orig two-level, orig multi-level, neg two-level,
          neg multi-level) areas *)
}

type t = {
  name : string;
  inputs : int;
  outputs : int;
  products : int;  (** the paper's P (what the generator targets) *)
  source : source;
  negation : source;  (** how the "Negation of Circuit" cover is obtained *)
  in_table1 : bool;
  in_table2 : bool;
  paper : paper_data;
}

val all : t list
(** Every registered benchmark, in the paper's table order. *)

val table1 : t list
val table2 : t list

val find : string -> t
(** @raise Not_found for unknown names. *)

val cover : t -> Mcx_logic.Mo_cover.t
(** The benchmark's multi-output cover (memoized). *)

val negated_cover : t -> Mcx_logic.Mo_cover.t
(** The "Negation of Circuit" cover (memoized): for arithmetic benchmarks
    an exact output-wise complement ({!Mcx_logic.Mo_cover.complement}) of
    the memoized {!cover}, unless the circuit defines its negation (t481,
    cordic); a stats-matched synthetic built from the paper's
    negation-column statistics otherwise. *)
