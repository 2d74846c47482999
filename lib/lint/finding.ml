type t = { file : string; line : int; col : int; rule : string; message : string }

let make ~file ~line ~col ~rule ~message = { file; line; col; rule; message }

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.rule b.rule

let to_string t = Printf.sprintf "%s:%d:%d [%s] %s" t.file t.line t.col t.rule t.message

let to_json t =
  Mcx_util.Json_out.Obj
    [
      ("file", Mcx_util.Json_out.Str t.file);
      ("line", Mcx_util.Json_out.Int t.line);
      ("col", Mcx_util.Json_out.Int t.col);
      ("rule", Mcx_util.Json_out.Str t.rule);
      ("message", Mcx_util.Json_out.Str t.message);
    ]
