(** Quine–McCluskey two-level minimization (exact primes, heuristic cover).

    Generates all prime implicants of a truth table exactly, then selects a
    cover using essential primes plus greedy completion. Implicants are
    coded as ints and merged through an array indexed by their literal
    bits; the greedy cover keeps each prime's count of uncovered minterms
    exact as minterms get covered, instead of rescanning. The Suite builds
    and the dual choice run it on up to 14 inputs; its memory grows as
    2^arity words. The arithmetic benchmark generators use it to get
    stable, near-minimum product counts. *)

val primes : Truthtable.t -> Cube.t list
(** All prime implicants of the ON-set, ordered by dash mask, then by
    literal bits (both read as integers, variable [i] at bit [i]). *)

val minimize : Truthtable.t -> Cover.t
(** Essential primes + greedy covering of the remaining minterms. A pick
    takes the prime covering the most uncovered minterms, then the one
    with the most dashes, then the earliest in {!primes} order. The
    result lists the picks, latest first, then the essential primes. It
    covers exactly the ON-set (property-tested). *)
