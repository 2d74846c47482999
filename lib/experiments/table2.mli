(** Table II: success rate and runtime of the hybrid (HBA) vs exact (EA)
    mapping algorithms on optimum-size crossbars with 10% stuck-open
    defects, 200 Monte Carlo samples per circuit.

    The paper's claims reproduced here: HBA is one to two orders of
    magnitude faster while giving up at most ~15 percentage points of
    success rate, and both algorithms degrade on high-IR circuits (rd73,
    clip, rd84, sao2, exp5). Following §IV.B, each circuit is implemented
    as the cheaper of the function and its negation (dual optimization). *)

type row = {
  name : string;
  inputs : int;
  outputs : int;
  products : int;
  area : int;
  inclusion_ratio : float;
  dual_used : bool;
  hba_psucc : float;
  hba_mean_seconds : float;
  ea_psucc : float;
  ea_mean_seconds : float;
  hba_all_valid : bool;  (** every successful HBA assignment re-verified *)
  ea_all_valid : bool;
  paper : Mcx_benchmarks.Suite.paper_data;
}

val run :
  ?pool:Mcx_util.Pool.t ->
  ?samples:int ->
  ?defect_rate:float ->
  ?benchmarks:string list ->
  seed:int ->
  unit ->
  row list
(** Monte Carlo per circuit; [samples] defaults to 200 and [defect_rate]
    to 0.10 (stuck-open only, as in §V). Trials are distributed over
    [pool] (default {!Mcx_util.Pool.default}); success columns are
    job-count independent, the timing columns are measured per trial on
    whichever domain ran it. *)

val to_table : row list -> Mcx_util.Texttable.t
val to_csv : row list -> string
