(** One lint finding, addressed by source position. *)

type t = { file : string; line : int; col : int; rule : string; message : string }

val make : file:string -> line:int -> col:int -> rule:string -> message:string -> t

val compare : t -> t -> int
(** Order by file, line, column, rule — the report order. *)

val to_string : t -> string
(** [file:line:col [rule-id] message]. *)

val to_json : t -> Mcx_util.Json_out.t
