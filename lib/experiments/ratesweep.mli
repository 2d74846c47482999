(** Defect-rate sweep: Psucc versus stuck-open rate for both mapping
    algorithms (hybrid and exact).

    Table II fixes the rate at 10%; this sweep shows the whole degradation
    curve and where the hybrid heuristic starts paying for its speed — the
    natural "Fig. 9" the paper stops short of. *)

type point = {
  defect_rate : float;
  hba_psucc : float;
  ea_psucc : float;
}

type sweep = { benchmark : string; samples : int; points : point list }

val run :
  ?pool:Mcx_util.Pool.t ->
  ?samples:int ->
  ?defect_rates:float list ->
  seed:int ->
  benchmark:string ->
  unit ->
  sweep
(** Defaults: 100 samples, rates [0.02; 0.05; 0.08; 0.10; 0.12; 0.15;
    0.20]. *)

val to_table : sweep -> Mcx_util.Texttable.t
