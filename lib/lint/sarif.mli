(** SARIF 2.1.0 export (the static-analysis interchange format GitHub
    code scanning ingests), so mcx-lint findings annotate PRs.

    One [run] with the full rule registry under [tool.driver.rules];
    findings become [results] with 1-based physical locations. *)

val version : string
(** Reported as [tool.driver.version]. *)

val report : Finding.t list -> string
(** Compact JSON document (single trailing newline not included). *)
