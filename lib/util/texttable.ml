type align = Left | Right | Center

type line = Row of string list | Separator

type t = { headers : string list; aligns : align list; mutable lines : line list }

let create ?aligns headers =
  if headers = [] then invalid_arg "Texttable.create: empty header";
  let aligns =
    match aligns with
    | Some a ->
      if List.length a <> List.length headers then
        invalid_arg "Texttable.create: aligns length mismatch";
      a
    | None -> Left :: List.map (fun _ -> Right) (List.tl headers)
  in
  { headers; aligns; lines = [] }

let arity t = List.length t.headers

let add_row t row =
  if List.length row <> arity t then invalid_arg "Texttable.add_row: arity mismatch";
  t.lines <- Row row :: t.lines

let add_separator t = t.lines <- Separator :: t.lines

let rows_in_order t = List.rev t.lines

let column_widths t =
  let widths = Array.of_list (List.map String.length t.headers) in
  let update = function
    | Separator -> ()
    | Row cells -> List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) cells
  in
  List.iter update (rows_in_order t);
  widths

let pad align width s =
  let slack = width - String.length s in
  if slack <= 0 then s
  else
    match align with
    | Left -> s ^ String.make slack ' '
    | Right -> String.make slack ' ' ^ s
    | Center ->
      let left = slack / 2 in
      String.make left ' ' ^ s ^ String.make (slack - left) ' '

let render t =
  let widths = column_widths t in
  let aligns = Array.of_list t.aligns in
  let buf = Buffer.create 256 in
  let rule () =
    Array.iteri
      (fun i w ->
        Buffer.add_string buf (if i = 0 then "+" else "+");
        Buffer.add_string buf (String.make (w + 2) '-'))
      widths;
    Buffer.add_string buf "+\n"
  in
  let emit_cells cells =
    List.iteri
      (fun i c ->
        Buffer.add_string buf "| ";
        Buffer.add_string buf (pad aligns.(i) widths.(i) c);
        Buffer.add_char buf ' ')
      cells;
    Buffer.add_string buf "|\n"
  in
  rule ();
  emit_cells t.headers;
  rule ();
  List.iter
    (function
      | Separator -> rule ()
      | Row cells -> emit_cells cells)
    (rows_in_order t);
  rule ();
  Buffer.contents buf

let csv_field s =
  let needs_quote = String.exists (fun c -> c = ',' || c = '"' || c = '\n') s in
  if not needs_quote then s
  else begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let to_csv t =
  let buf = Buffer.create 256 in
  let emit cells = Buffer.add_string buf (String.concat "," (List.map csv_field cells) ^ "\n") in
  emit t.headers;
  List.iter
    (function
      | Separator -> ()
      | Row cells -> emit cells)
    (rows_in_order t);
  Buffer.contents buf
