(** Minimal JSON emission and parsing shared by the machine-readable
    outputs (the telemetry Chrome trace, config snapshots, access logs,
    serve responses) and their readers.

    The value type is a plain tree; rendering is deterministic (object
    fields are emitted in construction order, floats through
    {!float_repr}). The reader ({!of_string}) parses serve's request
    lines ([Mcx_service.Wire]) and the files [memx report] summarizes
    ([Mcx_service.Report]): it accepts the compact subset this module
    emits plus insignificant whitespace, and round-trips every emitted
    value ([of_string (to_string v)] re-serializes to [to_string v]). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** NaN and infinities render as [null]; see {!float_repr}. *)
  | Str of string
  | List of t list
  | Obj of (string * t) list

val float_repr : float -> string
(** Shortest of [%.15g]/[%.16g]/[%.17g] that round-trips through
    [float_of_string] — parsing the output recovers the exact double.
    NaN and the infinities have no JSON number form; they render as
    [null] (the emitter's documented policy, exercised by tests). *)

val to_string : t -> string

(** {2 Parsing} *)

val max_depth : int
(** Container-nesting limit enforced by {!of_string} (512): deeper input
    is a parse error, never a stack overflow. Far above anything the
    emitter produces. *)

val of_string : string -> (t, string) result
(** Parse one JSON value (surrounding whitespace allowed, trailing
    garbage rejected). Numbers without [.], [e] or [E] that fit an OCaml
    [int] parse as [Int], everything else as [Float], so a value emitted
    by {!to_string} parses back to a tree with the same serialization.
    Containers nested deeper than {!max_depth} are rejected. [\u] escapes
    cover the full Unicode range: surrogate pairs combine into one code
    point (re-encoded as UTF-8) and a lone surrogate is a parse error —
    it has no scalar value, and letting it through would emit invalid
    UTF-8. [Error msg] carries a byte offset. *)

(** {2 Lenient accessors}

    [Int]/[Float] are interchangeable where a float is expected (the
    emitter prints [Float 100.] as [100], which parses as [Int 100]). All
    return [None] on a type mismatch rather than raising, so a malformed
    field is the caller's to report. *)

val member : string -> t -> t option
(** First binding of the field in an [Obj]; [None] otherwise. *)

val to_bool_opt : t -> bool option
val to_int_opt : t -> int option

val to_float_opt : t -> float option
(** Accepts [Float], [Int] and [Null] (the emitted form of NaN). [Null]
    maps to [Float.nan]. *)

val to_string_opt : t -> string option
val to_list_opt : t -> t list option
