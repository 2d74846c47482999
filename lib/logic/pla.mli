(** Reader/writer for the espresso PLA exchange format.

    Supports the directives used by the MCNC benchmark distributions the
    paper consumes: [.i], [.o], [.p], [.ilb], [.ob], [.type fr/f], [.e/.end],
    comments ([#]). Output-part characters: ['1'] row belongs to the
    output's ON-set, ['0'] and ['~'] to its OFF-set (not represented),
    ['-'] (or ['2']) to its don't-care set, returned separately. *)

type parsed = {
  cover : Mo_cover.t;  (** the ON-set *)
  dc : Mo_cover.t;  (** the don't-care set (empty when the file has none);
                        feed it to {!Minimize.espresso_dc} output-wise *)
  input_labels : string list option;
  output_labels : string list option;
}

exception Parse_error of int * string
(** Line number (1-based) and message. *)

val parse_string : string -> parsed
(** @raise Parse_error on malformed input. *)

val parse_file : string -> parsed
(** @raise Parse_error and [Sys_error]. *)

val to_string : ?input_labels:string list -> ?output_labels:string list -> Mo_cover.t -> string
(** Render a cover back to PLA text, ending with [.e]. *)
