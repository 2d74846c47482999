(** The former {!Mcx_logic.Qm}: exact primes by pairwise merging, then
    essential primes and a greedy cover that rescans every prime for each
    pick. The differential oracle for the library's minimizer. *)

val primes : Mcx_logic.Truthtable.t -> Mcx_logic.Cube.t list
(** All prime implicants, ordered by dash mask, then by literal bits. *)

val minimize : Mcx_logic.Truthtable.t -> Mcx_logic.Cover.t
(** Essential primes in hash-table order, then greedy picks: the largest
    count of uncovered minterms, then the most dashes, then the earliest
    prime. Picks come first in the result, latest first. *)
