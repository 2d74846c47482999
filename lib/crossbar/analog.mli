(** Analog model of wired evaluation on a crossbar line.

    The functional simulator treats a horizontal line's evaluation as an
    ideal Boolean NAND. Electrically (Snider [6], Xie [7]), the line is a
    resistive divider: a pull-up resistor against the parallel combination
    of the junction memristances, each R_ON (logic 0) or R_OFF (logic 1).
    The line voltage is

      V_row = V_dd * R_down / (R_up + R_down),
      R_down = (sum_j 1/R(v_j))^-1

    and the sensed logic value is a threshold comparison. The divider
    explains the paper's related-work concern ([9], [10]) that crossbar
    width is limited: with w junctions all at R_OFF, R_down = R_OFF / w
    shrinks with w, dragging the "all ones" voltage toward the threshold
    until the sense margin vanishes. This module computes line voltages,
    sense margins and the maximum reliable line width, and the test suite
    pins the functional simulator to the analog model inside that width. *)

type params = {
  r_on : float;  (** low-resistance (logic 0) memristance, ohms *)
  r_off : float;  (** high-resistance (logic 1) memristance, ohms *)
  r_pullup : float;  (** the line's pull-up resistor, ohms *)
  v_dd : float;  (** drive voltage, volts *)
  v_threshold : float;  (** sense threshold, volts *)
}

(** Every [?params] defaults to R_ON = 10 kOhm, R_OFF = 10 MOhm (a
    typical 1000x HfOx window), pull-up 30 kOhm (a few x R_ON: it must
    exceed R_ON to sense a single closed junction low yet stay far below
    R_OFF / width to sense the all-open code high), V_dd = 1 V, threshold
    at V_dd / 2. These defaults sustain lines a couple of hundred junctions
    wide — enough for every Table II benchmark (exp5's 142 columns is the
    widest). *)

val line_voltage : ?params:params -> bool list -> float
(** Voltage of a line whose junctions hold the given logic values ([true]
    = R_OFF). The empty line floats at [v_dd]. *)

val sensed_conjunction : ?params:params -> bool list -> bool
(** The thresholded line value: [true] iff [line_voltage > v_threshold] —
    electrically this senses the conjunction of the stored values, whose
    complement is the row's NAND result. *)

val sense_margin : ?params:params -> width:int -> unit -> float
(** Worst-case distance (volts) between the threshold and the line voltage
    over the two critical codes on a [width]-junction line: all-R_OFF
    (must sense high) and one-R_ON (must sense low). Negative when the
    line can mis-sense. @raise Invalid_argument if [width <= 0]. *)

val max_reliable_width : ?params:params -> ?margin:float -> unit -> int
(** Largest width whose {!sense_margin} stays above [margin] (default
    0.05 V): the electrical bound on how many vertical lines one
    horizontal line may cross — the limit Table II's big benchmarks
    (alu4: 44 columns) must respect. *)

val matches_functional : ?params:params -> width:int -> unit -> bool
(** Exhaustiveness is impossible, so this checks the two critical codes
    plus alternating patterns: the analog sense equals the ideal
    conjunction for every checked code at this width. *)
