type parsed = {
  cover : Mo_cover.t;
  dc : Mo_cover.t;
  input_labels : string list option;
  output_labels : string list option;
}

exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun msg -> raise (Parse_error (line, msg))) fmt

let split_words s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")

let strip_comment s =
  match String.index_opt s '#' with
  | Some i -> String.sub s 0 i
  | None -> s

let parse_string text =
  let lines = String.split_on_char '\n' text in
  let n_inputs = ref None and n_outputs = ref None in
  let input_labels = ref None and output_labels = ref None in
  let rows = ref [] in
  let dc_rows = ref [] in
  let parse_row lineno input_part output_part =
    let ni =
      match !n_inputs with Some n -> n | None -> fail lineno "product row before .i"
    in
    let no =
      match !n_outputs with Some n -> n | None -> fail lineno "product row before .o"
    in
    if String.length input_part <> ni then
      fail lineno "input part has %d columns, expected %d" (String.length input_part) ni;
    if String.length output_part <> no then
      fail lineno "output part has %d columns, expected %d" (String.length output_part) no;
    let cube =
      try Cube.of_string input_part
      with Invalid_argument msg -> fail lineno "bad input part: %s" msg
    in
    let outputs = Array.make no false in
    let dc_outputs = Array.make no false in
    String.iteri
      (fun k ch ->
        match ch with
        | '1' | '4' -> outputs.(k) <- true
        | '-' | '2' | '3' -> dc_outputs.(k) <- true
        | '0' | '~' -> ()
        | c -> fail lineno "bad output character %C" c)
      output_part;
    if Array.exists Fun.id outputs then rows := { Mo_cover.cube; outputs } :: !rows;
    if Array.exists Fun.id dc_outputs then
      dc_rows := { Mo_cover.cube; outputs = dc_outputs } :: !dc_rows
  in
  List.iteri
    (fun i raw ->
      let lineno = i + 1 in
      let line = String.trim (strip_comment raw) in
      if line <> "" then begin
        match split_words line with
        | ".i" :: n :: _ ->
          (match int_of_string_opt n with
          | Some v when v >= 0 -> n_inputs := Some v
          | Some _ | None -> fail lineno "bad .i argument %S" n)
        | ".o" :: n :: _ ->
          (match int_of_string_opt n with
          | Some v when v >= 0 -> n_outputs := Some v
          | Some _ | None -> fail lineno "bad .o argument %S" n)
        | ".p" :: _ -> () (* informative; we count rows ourselves *)
        | ".ilb" :: labels -> input_labels := Some labels
        | ".ob" :: labels -> output_labels := Some labels
        | ".type" :: _ -> () (* fr/f accepted; DC rows carry no '1' outputs *)
        | [ ".e" ] | [ ".end" ] -> ()
        | word :: _ when String.length word > 0 && word.[0] = '.' ->
          fail lineno "unsupported directive %S" word
        | [ input_part; output_part ] -> parse_row lineno input_part output_part
        | [ single ] ->
          (* Single-output PLAs sometimes omit the output column separator. *)
          (match !n_inputs, !n_outputs with
          | Some ni, Some 1 when String.length single = ni + 1 ->
            parse_row lineno (String.sub single 0 ni) (String.sub single ni 1)
          | _, _ -> fail lineno "malformed product row %S" single)
        | _ -> fail lineno "malformed line"
      end)
    lines;
  let ni = match !n_inputs with Some n -> n | None -> fail 0 "missing .i" in
  let no = match !n_outputs with Some n -> n | None -> fail 0 "missing .o" in
  let cover = Mo_cover.create ~n_inputs:ni ~n_outputs:no (List.rev !rows) in
  let dc = Mo_cover.create ~n_inputs:ni ~n_outputs:no (List.rev !dc_rows) in
  { cover; dc; input_labels = !input_labels; output_labels = !output_labels }

let parse_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  parse_string content

let to_string ?input_labels ?output_labels cover =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf ".i %d\n" (Mo_cover.n_inputs cover));
  Buffer.add_string buf (Printf.sprintf ".o %d\n" (Mo_cover.n_outputs cover));
  (match input_labels with
  | Some labels -> Buffer.add_string buf (".ilb " ^ String.concat " " labels ^ "\n")
  | None -> ());
  (match output_labels with
  | Some labels -> Buffer.add_string buf (".ob " ^ String.concat " " labels ^ "\n")
  | None -> ());
  Buffer.add_string buf (Printf.sprintf ".p %d\n" (Mo_cover.product_count cover));
  List.iter
    (fun { Mo_cover.cube; outputs } ->
      Buffer.add_string buf (Cube.to_string cube);
      Buffer.add_char buf ' ';
      Array.iter (fun b -> Buffer.add_char buf (if b then '1' else '0')) outputs;
      Buffer.add_char buf '\n')
    (Mo_cover.rows cover);
  Buffer.add_string buf ".e\n";
  Buffer.contents buf
