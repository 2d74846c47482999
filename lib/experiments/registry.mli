(** The experiment registry: every table and figure of the paper's
    evaluation plus the extension studies, in one ordered list.

    [memx experiment NAME...|all] runs entries by name and prints their
    text; nothing here writes to stdout or to disk. Each entry's Monte
    Carlo trials derive their PRNG streams from (seed, experiment, trial
    index), so an entry's text and CSVs are byte-identical at any pool
    size, apart from table2's measured time columns. *)

type output = {
  text : string;  (** headings, tables and "csv written to" lines *)
  csvs : (string * string) list;  (** (file name, contents), in print order *)
}

val names : string list
(** fig3 fig5 fig6 table1 fig7 table2 yield mldefect ratesweep ablation
    tradeoff aging transient margin, in that order. *)

val run : ?pool:Mcx_util.Pool.t -> ?samples:int -> seed:int -> string -> output
(** [run ~seed name] runs one entry on [pool] (default
    {!Mcx_util.Pool.default}). [samples] overrides the sample count of
    the Monte Carlo entries, whose defaults are the paper's 200 for fig6
    and table2, 100 for yield, mldefect, ratesweep and ablation, 60 for
    aging and 300 evaluations for transient; the other entries ignore it.
    @raise Invalid_argument if [name] is not in {!names}. *)
