(** Joint multi-output two-level minimization.

    Per-output minimization ({!Mo_cover.minimize}) only shares products
    that happen to come out identical. The crossbar's P — its row count —
    rewards deliberate sharing: a slightly sub-optimal cube usable by two
    outputs is cheaper than two optimal ones. This module runs espresso's
    steps on the multi-output representation itself, in one pass (a
    second would change nothing):

    - {e output expansion}: add an output to a row's mask whenever the cube
      is contained in that output's function;
    - {e input expansion}: raise literals while the cube stays inside
      {b every} output of its mask;
    - {e irredundancy}: drop rows whose every obligation is covered by the
      remaining rows;
    - {e make-sparse}: finally strip output connections other rows already
      provide, minimizing AND-plane switches at the settled row count.

    Semantics are preserved exactly (property-tested with BDDs). On the rd
    benchmark family this pipeline reproduces the paper's espresso product
    counts exactly (rd53: 31, rd73: 127, rd84: 255). *)

val minimize_joint : Mo_cover.t -> Mo_cover.t
