(** Joint multi-output two-level minimization.

    Minimizing each output on its own only shares products that happen to
    come out identical. The crossbar's P — its row count — rewards
    deliberate sharing: a slightly sub-optimal cube usable by two outputs
    is cheaper than two optimal ones. This module runs espresso's steps on
    the multi-output representation itself, in one pass (a second would
    change nothing):

    - {e output expansion}: add an output to a row's mask whenever the cube
      is contained in that output's function;
    - {e input expansion}: raise literals while the cube stays inside
      {b every} output of its mask;
    - {e irredundancy}: drop rows whose every obligation is covered by the
      remaining rows;
    - {e make-sparse}: finally strip output connections other rows already
      provide, minimizing AND-plane switches at the settled row count.

    The two expansions ask about the input's functions, which are
    tabulated once ({!Truthtable.of_cover}); irredundancy and make-sparse
    ask about the current rows through {!Tautology}'s sweeps. Semantics are
    preserved exactly (property-tested with BDDs). On the rd benchmark
    family this pipeline reproduces the paper's espresso product counts
    exactly (rd53: 31, rd73: 127, rd84: 255). *)

val minimize_joint : Mo_cover.t -> Mo_cover.t
(** @raise Invalid_argument above 22 inputs, the bound of {!Truthtable}.
    Its one caller, [Arith.of_word_function], builds at most 9. *)
