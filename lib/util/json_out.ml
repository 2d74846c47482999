type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\012' -> Buffer.add_string buf "\\f"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float_repr f =
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then "null"
  else begin
    let try_prec p =
      let s = Printf.sprintf "%.*g" p f in
      if float_of_string s = f then Some s else None
    in
    match try_prec 15 with
    | Some s -> s
    | None -> (
      match try_prec 16 with
      | Some s -> s
      | None -> Printf.sprintf "%.17g" f)
  end

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f ->
    if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then
      Buffer.add_string buf "null"
    else Buffer.add_string buf (float_repr f)
  | Str s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        to_buffer buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (name, value) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape name);
        Buffer.add_string buf "\":";
        to_buffer buf value)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

(* --- parsing ------------------------------------------------------- *)

exception Parse_error of int * string

(* Recursion in [parse_value] is bounded so that adversarially deep input
   ("[[[[...") returns [Error] instead of overflowing the OCaml stack.
   512 is far above anything the emitter produces (the trace schema nests
   3-4 levels) yet well inside the default stack budget. *)
let max_depth = 512

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let error msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> error (Printf.sprintf "expected %C, found %C" c c')
    | None -> error (Printf.sprintf "expected %C, found end of input" c)
  in
  let skip_ws () =
    while
      match peek () with Some (' ' | '\t' | '\n' | '\r') -> true | Some _ | None -> false
    do
      advance ()
    done
  in
  let literal word value =
    let k = String.length word in
    if !pos + k <= n && String.sub s !pos k = word then begin
      pos := !pos + k;
      value
    end
    else error (Printf.sprintf "expected %s" word)
  in
  let parse_string_body () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then error "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (if !pos >= n then error "unterminated escape";
         match s.[!pos] with
         | '"' -> Buffer.add_char buf '"'; advance ()
         | '\\' -> Buffer.add_char buf '\\'; advance ()
         | '/' -> Buffer.add_char buf '/'; advance ()
         | 'b' -> Buffer.add_char buf '\b'; advance ()
         | 'f' -> Buffer.add_char buf '\012'; advance ()
         | 'n' -> Buffer.add_char buf '\n'; advance ()
         | 'r' -> Buffer.add_char buf '\r'; advance ()
         | 't' -> Buffer.add_char buf '\t'; advance ()
         | 'u' ->
           advance ();
           let hex4 () =
             if !pos + 4 > n then error "truncated \\u escape";
             let code =
               try int_of_string ("0x" ^ String.sub s !pos 4)
               with Failure _ -> error "bad \\u escape"
             in
             pos := !pos + 4;
             code
           in
           let code = hex4 () in
           (* The emitter only produces \u00XX for control bytes, but
              accept the full BMP plus surrogate pairs and re-encode as
              UTF-8. An unpaired surrogate has no scalar value — emitting
              it would smuggle invalid UTF-8 through the parser — so it
              is rejected rather than passed along. *)
           let code =
             if code >= 0xD800 && code <= 0xDBFF then begin
               if
                 not
                   (!pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u')
               then error "lone high surrogate";
               pos := !pos + 2;
               let low = hex4 () in
               if low < 0xDC00 || low > 0xDFFF then error "lone high surrogate";
               0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
             end
             else if code >= 0xDC00 && code <= 0xDFFF then error "lone low surrogate"
             else code
           in
           if code < 0x80 then Buffer.add_char buf (Char.chr code)
           else if code < 0x800 then begin
             Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
             Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
           end
           else if code < 0x10000 then begin
             Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
             Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
             Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
           end
           else begin
             Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
             Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
             Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
             Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
           end
         | c -> error (Printf.sprintf "bad escape \\%C" c));
        loop ()
      | c ->
        Buffer.add_char buf c;
        advance ();
        loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_number_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_number_char c | None -> false) do
      advance ()
    done;
    if !pos = start then error "expected a number";
    let tok = String.sub s start (!pos - start) in
    let floaty = String.exists (function '.' | 'e' | 'E' -> true | _ -> false) tok in
    if floaty then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> error (Printf.sprintf "bad number %S" tok)
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f (* integer literal beyond the int range *)
        | None -> error (Printf.sprintf "bad number %S" tok))
  in
  let rec parse_value depth =
    if depth > max_depth then error "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> Str (parse_string_body ())
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value (depth + 1) ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          items := parse_value (depth + 1) :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let name = parse_string_body () in
          skip_ws ();
          expect ':';
          let value = parse_value (depth + 1) in
          (name, value)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then error "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) -> Error (Printf.sprintf "at byte %d: %s" at msg)

(* --- lenient accessors --------------------------------------------- *)

let member name = function Obj fields -> List.assoc_opt name fields | _ -> None
let to_bool_opt = function Bool b -> Some b | _ -> None
let to_int_opt = function Int i -> Some i | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | Null -> Some Float.nan
  | _ -> None

let to_string_opt = function Str s -> Some s | _ -> None
let to_list_opt = function List items -> Some items | _ -> None
