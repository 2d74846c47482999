(** Fig. 6: two-level vs multi-level area on random Boolean functions.

    The paper draws 200 random single-output functions per input size (8,
    9, 10 and 15), synthesizes each both ways and sorts the samples by
    product count. The headline numbers are the per-panel success rates —
    the fraction of samples where the multi-level design is strictly
    cheaper: 65% / 60% / 54% / 33% in the paper, falling with input size
    and rising with product count. *)

type sample = {
  n_products : int;
  two_level_area : int;
  multi_level_area : int;
  gates : int;  (** G of the mapped NAND network *)
}

type panel = {
  n_inputs : int;
  samples : sample list;  (** sorted by ascending product count *)
  success_rate : float;  (** percent of samples with multi < two *)
}

val run_panel :
  ?pool:Mcx_util.Pool.t -> ?samples:int -> seed:int -> n_inputs:int -> unit -> panel
(** One panel; [samples] defaults to the paper's 200. Samples are
    independent trials distributed over [pool] (default
    {!Mcx_util.Pool.default}), each with its own derived stream. *)

val run :
  ?pool:Mcx_util.Pool.t ->
  ?samples:int ->
  ?input_sizes:int list ->
  seed:int ->
  unit ->
  panel list
(** All panels; [input_sizes] defaults to the paper's [8; 9; 10; 15]. *)

val summary_table : panel list -> Mcx_util.Texttable.t
(** One row per panel: input size, success rate (paper vs measured),
    median areas. *)

val series_csv : panel -> string
(** The sorted per-sample series of one panel (sample index, product count,
    two-level area, multi-level area) — the data behind the plot. *)
