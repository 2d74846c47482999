(* The benchmark's output gate. The checks read library results cell by
   cell and use algorithms of their own (augmenting paths for row
   assignments, truth tables over every input vector for designs), so a
   change to a library's fast path cannot agree with them by
   construction. *)

module Bmatrix = Mcx.Util.Bmatrix
module Mo_cover = Mcx.Logic.Mo_cover
module Geometry = Mcx.Crossbar.Geometry
module Layout = Mcx.Crossbar.Layout
module Multilevel = Mcx.Crossbar.Multilevel
module Network = Mcx.Netlist.Network
module Signal = Mcx.Netlist.Signal

(* --- row assignments -------------------------------------------------- *)

(* The columns each function-matrix row needs on a functional junction. *)
let required_columns fm =
  Array.init (Bmatrix.rows fm) (fun r ->
      List.filter (Bmatrix.get fm r) (List.init (Bmatrix.cols fm) Fun.id))

(* [functional.(r).(c)]: junction (r, c) of the crossbar works. *)
let functional_of_cm cm =
  Array.init (Bmatrix.rows cm) (fun r -> Array.init (Bmatrix.cols cm) (Bmatrix.get cm r))

let functional_of_defects defects =
  let module D = Mcx.Crossbar.Defect_map in
  Array.init (D.rows defects) (fun r ->
      Array.init (D.cols defects) (fun c ->
          match D.get defects r c with
          | Mcx.Crossbar.Junction.Functional -> true
          | Mcx.Crossbar.Junction.Stuck_open | Mcx.Crossbar.Junction.Stuck_closed -> false))

let fits ~required ~functional r t = List.for_all (fun c -> functional.(t).(c)) required.(r)

(* [None] when [a] sends every row to its own crossbar row, in range,
   whose junctions work wherever the row needs a switch. *)
let assignment_problem ~required ~functional a =
  let n = Array.length required and rows = Array.length functional in
  if Array.length a <> n then
    Some (Printf.sprintf "assignment has %d rows, the function matrix %d" (Array.length a) n)
  else begin
    let taken = Array.make rows false in
    let rec go r =
      if r = n then None
      else
        let t = a.(r) in
        if t < 0 || t >= rows then
          Some (Printf.sprintf "row %d goes to crossbar row %d, outside 0..%d" r t (rows - 1))
        else if taken.(t) then Some (Printf.sprintf "two rows go to crossbar row %d" t)
        else if not (fits ~required ~functional r t) then
          Some (Printf.sprintf "row %d needs a defective junction of crossbar row %d" r t)
        else begin
          taken.(t) <- true;
          go (r + 1)
        end
    in
    go 0
  end

(* Whether any valid assignment exists: Kuhn's augmenting-path matching
   between function-matrix rows and the crossbar rows they fit. *)
let assignment_exists ~required ~functional =
  let n = Array.length required and rows = Array.length functional in
  let candidates =
    Array.init n (fun r -> List.filter (fits ~required ~functional r) (List.init rows Fun.id))
  in
  let owner = Array.make rows (-1) in
  let rec augment seen r =
    List.exists
      (fun t ->
        (not seen.(t))
        && begin
             seen.(t) <- true;
             (owner.(t) < 0 || augment seen owner.(t))
             && begin
                  owner.(t) <- r;
                  true
                end
           end)
      candidates.(r)
  in
  let rec from r = r = n || (augment (Array.make rows false) r && from (r + 1)) in
  from 0

(* --- truth tables ----------------------------------------------------- *)

(* A function of [n] inputs as its values on all 2^n input vectors, 32
   vectors per word: vector [v] is bit [v land 31] of word [v lsr 5], and
   input [i] of vector [v] is bit [i] of [v]. *)
module Tt = struct
  type t = { n : int; words : int array }

  let mask n = if n >= 5 then 0xFFFF_FFFF else (1 lsl (1 lsl n)) - 1

  let width n =
    if n > 24 then invalid_arg "Tt: too many inputs for exhaustive evaluation";
    if n >= 5 then 1 lsl (n - 5) else 1

  let const n b = { n; words = Array.make (width n) (if b then mask n else 0) }

  (* The bits of one word at which input [i] < 5 is 1. *)
  let low_pattern i =
    let p = ref 0 in
    for b = 0 to 31 do
      if (b lsr i) land 1 = 1 then p := !p lor (1 lsl b)
    done;
    !p

  let input n i =
    {
      n;
      words =
        Array.init (width n) (fun w ->
            if i < 5 then low_pattern i land mask n
            else if (w lsr (i - 5)) land 1 = 1 then mask n
            else 0);
    }

  let not_ t = { t with words = Array.map (fun x -> lnot x land mask t.n) t.words }
  let and_ a b = { a with words = Array.map2 ( land ) a.words b.words }
  let or_ a b = { a with words = Array.map2 ( lor ) a.words b.words }
  let equal a b = a.n = b.n && a.words = b.words
  let get t v = (t.words.(v lsr 5) lsr (v land 31)) land 1 = 1
end

let tables_equal a b = Array.length a = Array.length b && Array.for_all2 Tt.equal a b

let literal n var = function
  | Mcx.Logic.Literal.Pos -> Tt.input n var
  | Mcx.Logic.Literal.Neg -> Tt.not_ (Tt.input n var)
  | Mcx.Logic.Literal.Absent -> Tt.const n true

(* One table per output of a cover. *)
let cover_tables cover =
  let n = Mo_cover.n_inputs cover in
  let outputs = Array.make (Mo_cover.n_outputs cover) (Tt.const n false) in
  List.iter
    (fun { Mo_cover.cube; outputs = members } ->
      let product =
        List.fold_left
          (fun acc (var, lit) -> Tt.and_ acc (literal n var lit))
          (Tt.const n true) (Mcx.Logic.Cube.literals cube)
      in
      Array.iteri (fun k m -> if m then outputs.(k) <- Tt.or_ outputs.(k) product) members)
    (Mo_cover.rows cover);
  outputs

(* The function a placed two-level design computes on a defect-free
   crossbar, read off its programmed junctions (Fig. 2): a product row is
   the AND of the literals it is programmed on; output k is the OR of the
   product rows programmed on its AND-plane column, provided output row k
   is programmed to invert that column onto the output (it reads constant
   1 otherwise). *)
let two_level_tables (layout : Layout.t) =
  let g = layout.Layout.fm.Mcx.Crossbar.Function_matrix.geometry in
  let n = Geometry.n_inputs g in
  let programmed r c = Bmatrix.get layout.Layout.program r c in
  let row role = layout.Layout.row_assignment.(Geometry.row_of_role g role) in
  let col role = layout.Layout.col_assignment.(Geometry.column_of_role g role) in
  let products =
    List.init (Geometry.n_products g) (fun p ->
        let r = row (Geometry.Product p) in
        let table = ref (Tt.const n true) in
        for v = 0 to n - 1 do
          if programmed r (col (Geometry.Input_pos v)) then table := Tt.and_ !table (Tt.input n v);
          if programmed r (col (Geometry.Input_neg v)) then
            table := Tt.and_ !table (Tt.not_ (Tt.input n v))
        done;
        (r, !table))
  in
  Array.init (Geometry.n_outputs g) (fun k ->
      if not (programmed (row (Geometry.Output_row k)) (col (Geometry.Output_main k))) then
        Tt.const n true
      else
        List.fold_left
          (fun acc (r, table) ->
            if programmed r (col (Geometry.Output_comp k)) then Tt.or_ acc table else acc)
          (Tt.const n false) products)

(* The function a placed multi-level design computes on a defect-free
   crossbar (Fig. 4/5). Gates are evaluated in id order, each the NAND of
   the literal columns its row is programmed on and of the gates whose
   connection columns it reads (its own connection column is its write
   junction, not an input). A gate-driven output is written by its gate
   on the output's main column, or on the complement column when the
   network carries the complement; outputs fed by a literal or a constant
   pass through the latch row. *)
let multi_level_tables (ml : Multilevel.t) =
  let mapped = ml.Multilevel.mapped in
  let net = mapped.Mcx.Netlist.Tech_map.network in
  let negated = mapped.Mcx.Netlist.Tech_map.negated in
  let n = Network.n_inputs net and gates = Network.gate_count net in
  let programmed row c = Bmatrix.get ml.Multilevel.program ml.Multilevel.row_assignment.(row) c in
  let owner = Hashtbl.create 16 in
  for g = 0 to gates - 1 do
    Option.iter (fun c -> Hashtbl.replace owner c g) ml.Multilevel.conn_col_of_gate.(g)
  done;
  let first_output = ml.Multilevel.cols - (2 * Array.length negated) in
  let malformed = ref None in
  let note msg = if Option.is_none !malformed then malformed := Some msg in
  let value = Array.make (max 1 gates) (Tt.const n false) in
  for g = 0 to gates - 1 do
    let inputs = ref (Tt.const n true) in
    for c = 0 to first_output - 1 do
      if programmed g c then begin
        if c < n then inputs := Tt.and_ !inputs (Tt.input n c)
        else if c < 2 * n then inputs := Tt.and_ !inputs (Tt.not_ (Tt.input n (c - n)))
        else
          match Hashtbl.find_opt owner c with
          | Some h when h = g -> ()
          | Some h when h < g -> inputs := Tt.and_ !inputs value.(h)
          | Some h -> note (Printf.sprintf "gate %d reads gate %d, which is evaluated later" g h)
          | None -> note (Printf.sprintf "gate %d reads column %d, which no gate drives" g c)
      end
    done;
    value.(g) <- Tt.not_ !inputs
  done;
  let output k signal =
    let s =
      match signal with
      | Signal.Const b -> Tt.const n b
      | Signal.Input i -> Tt.input n i
      | Signal.Input_neg i -> Tt.not_ (Tt.input n i)
      | Signal.Gate { id; _ } ->
        let column = first_output + (2 * k) + if negated.(k) then 1 else 0 in
        if not (programmed id column) then
          note (Printf.sprintf "output %d: gate %d does not write it" k id);
        value.(id)
    in
    if negated.(k) then Tt.not_ s else s
  in
  let tables = Array.of_list (List.mapi output (Network.outputs net)) in
  match !malformed with None -> Ok tables | Some msg -> Error msg
