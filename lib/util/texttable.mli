(** ASCII table and CSV rendering for experiment reports.

    Every experiment in [mcx_experiments] reduces to a list of rows; this
    module renders them the way the paper's tables look (a header, a rule,
    aligned columns). *)

type align = Left | Right | Center

type t
(** A table under construction: a header plus accumulated rows. *)

val create : ?aligns:align list -> string list -> t
(** [create headers] starts a table. [aligns] defaults to [Left] for the
    first column and [Right] for the rest, which suits name-plus-numbers
    tables. @raise Invalid_argument on empty header or mismatched [aligns]
    length. *)

val add_row : t -> string list -> unit
(** Append a row. @raise Invalid_argument if the arity differs from the
    header. *)

val add_separator : t -> unit
(** Append a horizontal rule between row groups. *)

val render : t -> string
(** Render with box-drawing in plain ASCII. *)

val to_csv : t -> string
(** Render header and rows as RFC-4180-ish CSV (quotes fields containing
    commas, quotes or newlines). Separators are skipped. *)
