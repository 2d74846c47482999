(** Table I: two-level vs multi-level area for benchmark circuits, for the
    original function and its negation.

    The paper's takeaway: multi-level synthesis loses badly on multi-output
    benchmarks (conventional tools cannot share enough logic across
    outputs) but wins on the single-output t481 and near-single-output
    cordic. The reproduction computes all four areas with the in-repo
    synthesizers and prints them next to the paper's. *)

type row = {
  name : string;
  orig_two_level : int;
  orig_multi_level : int;
  neg_two_level : int;
  neg_multi_level : int;
  paper : (int * int * int * int) option;
}

val run : ?benchmarks:string list -> unit -> row list
(** Defaults to the paper's nine Table I circuits. *)

val to_table : row list -> Mcx_util.Texttable.t
