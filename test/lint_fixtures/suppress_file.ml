(* A floating [@@@mcx.lint.allow] suppresses the whole file. *)

[@@@mcx.lint.allow "hygiene-obj-magic"]

let cast (x : int) : bool = Obj.magic x
