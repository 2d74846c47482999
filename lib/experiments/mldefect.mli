(** EXT-MLDEF: defect-tolerant mapping of multi-level designs — the second
    future-work thread of §VI ("we plan to integrate multi-level logic
    design with our defect tolerant logic mapping methods").

    Gate rows of the multi-level crossbar may be permuted freely (the
    controller evaluates them in dependency order regardless of physical
    position), so the same row-matching machinery applies: gate rows play
    the role of minterm rows and the latch row is assigned exactly. Every
    successful mapping is re-validated by running the multi-level
    simulator symbolically against the reference cover, at any width. *)

type point = {
  defect_rate : float;
  psucc : float;
  all_simulations_correct : bool;
}

type result = {
  benchmark : string;
  gates : int;
  area : int;  (** physical area including any spare rows *)
  spare_rows : int;
  samples : int;
  points : point list;
}

val run :
  ?pool:Mcx_util.Pool.t ->
  ?samples:int ->
  ?defect_rates:float list ->
  ?spare_rows:int ->
  seed:int ->
  benchmark:string ->
  unit ->
  result
(** Defaults: 100 samples, stuck-open rates [0.02; 0.05; 0.10; 0.15], no
    spare rows. With [spare_rows > 0] the crossbar gets extra horizontal
    lines for the mapper to dodge into — combining the paper's two
    future-work threads (multi-level defect tolerance and area
    redundancy). *)

val to_table : result -> Mcx_util.Texttable.t
