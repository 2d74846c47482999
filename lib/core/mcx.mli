(** Memristive crossbar logic synthesis and defect tolerance.

    The umbrella API of the library, reproducing Tunali & Altun, "Logic
    Synthesis and Defect Tolerance for Memristive Crossbar Arrays"
    (DATE 2018). The sub-libraries remain directly usable; this module
    re-exports them and packages the paper's three end-to-end flows:

    - {!synthesize_two_level}: SOP cover -> placed NAND/AND-plane crossbar;
    - {!synthesize_multi_level}: SOP cover -> factored NAND network -> the
      serialized multi-level crossbar of §III;
    - {!map_defect_tolerant}: place a two-level design on a defective
      crossbar with the hybrid (Algorithm 1) or exact method of §IV. *)

module Util = Mcx_util
module Logic = Mcx_logic
module Netlist = Mcx_netlist
module Crossbar = Mcx_crossbar
module Mapping = Mcx_mapping
module Benchmarks = Mcx_benchmarks
module Experiments = Mcx_experiments

type algorithm = Hybrid | Exact

val synthesize_two_level :
  ?include_il_row:bool ->
  ?dual:bool ->
  Mcx_logic.Mo_cover.t ->
  Mcx_crossbar.Layout.t * Mcx_crossbar.Cost.report * bool
(** Place a cover on a pristine optimum-size crossbar. With [dual] (default
    [true], as in the paper) the cheaper of the function and its negation
    is implemented; the returned flag says whether the negation was chosen.
    The layout always computes the original function's outputs when the
    dual is not chosen; when it is, the layout computes the complemented
    functions (the crossbar's free output inversion recovers the
    original). *)

val synthesize_multi_level :
  ?fanin_limit:int ->
  Mcx_logic.Mo_cover.t ->
  Mcx_crossbar.Multilevel.t * Mcx_crossbar.Cost.report
(** Factor, map to NAND gates and build the multi-level crossbar. *)

val map_defect_tolerant :
  ?include_il_row:bool ->
  algorithm:algorithm ->
  Mcx_logic.Mo_cover.t ->
  Mcx_crossbar.Defect_map.t ->
  Mcx_crossbar.Layout.t option
(** Defect-aware placement on an optimum-size crossbar with stuck-open
    defects (§IV.B). [None] means the algorithm found no valid row
    assignment (for [Exact] this proves none exists). @raise
    Invalid_argument if the defect map does not have the cover's optimum
    dimensions. *)

val verify :
  ?defects:Mcx_crossbar.Defect_map.t -> Mcx_crossbar.Layout.t -> bool
(** Whether the placed design computes its cover on every input under
    [defects], checked over BDDs at any width: the end-to-end correctness
    check behind the paper's notion of a "valid mapping". *)

val simulate :
  ?defects:Mcx_crossbar.Defect_map.t ->
  Mcx_crossbar.Layout.t ->
  bool array ->
  bool array
(** One computation on the placed crossbar ({!Crossbar.Sim.run}). *)
