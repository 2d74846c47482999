open Mcx_util
open Mcx_netlist

type t = {
  mapped : Tech_map.mapped;
  rows : int;
  cols : int;
  conn_col_of_gate : int option array;
  program : Bmatrix.t;
  row_assignment : int array;
  physical_rows : int;
  physical_cols : int;
}

(* Column layout: [0, 2I) input literals (positives then complements),
   [2I, 2I + C) connection columns, then (Ok main, Ok comp) pairs. *)

let signal_col net = function
  | Signal.Input i -> Some i
  | Signal.Input_neg i -> Some (Network.n_inputs net + i)
  | Signal.Gate _ | Signal.Const _ -> None

let place ?row_assignment ?physical_rows (mapped : Tech_map.mapped) =
  Telemetry.span "multilevel.place" @@ fun () ->
  let net = mapped.Tech_map.network in
  let n_inputs = Network.n_inputs net in
  let n_gates = Network.gate_count net in
  Telemetry.count ~n:n_gates "multilevel.gates_placed";
  let n_outputs = Array.length mapped.Tech_map.negated in
  (* Inner gates, in id order, each get one connection column. *)
  let feeds = Array.make (max 1 n_gates) false in
  for id = 0 to n_gates - 1 do
    List.iter
      (function
        | Signal.Gate { id = g; _ } -> feeds.(g) <- true
        | Signal.Const _ | Signal.Input _ | Signal.Input_neg _ -> ())
      (Network.gate_fanins net id)
  done;
  let conn_col_of_gate = Array.make (max 1 n_gates) None in
  let next_conn = ref (2 * n_inputs) in
  for id = 0 to n_gates - 1 do
    if n_gates > 0 && feeds.(id) then begin
      conn_col_of_gate.(id) <- Some !next_conn;
      incr next_conn
    end
  done;
  let first_output_col = !next_conn in
  let output_main_col k = first_output_col + (2 * k) in
  let output_comp_col k = first_output_col + (2 * k) + 1 in
  let rows = n_gates + 1 in
  let cols = first_output_col + (2 * n_outputs) in
  let latch_row = n_gates in
  let physical_rows = Option.value physical_rows ~default:rows in
  if physical_rows < rows then invalid_arg "Multilevel.place: physical grid too small";
  let row_assignment = Option.value row_assignment ~default:(Array.init rows Fun.id) in
  if Array.length row_assignment <> rows then
    invalid_arg "Multilevel.place: row assignment length mismatch";
  let seen = Hashtbl.create rows in
  Array.iter
    (fun r ->
      if r < 0 || r >= physical_rows then invalid_arg "Multilevel.place: row out of range";
      if Hashtbl.mem seen r then invalid_arg "Multilevel.place: duplicate row target";
      Hashtbl.replace seen r ())
    row_assignment;
  let program = Bmatrix.create ~rows:physical_rows ~cols false in
  let prow logical = row_assignment.(logical) in
  for id = 0 to n_gates - 1 do
    let r = prow id in
    List.iter
      (fun fanin ->
        match signal_col net fanin with
        | Some c -> Bmatrix.set program r c true
        | None -> (
          match fanin with
          | Signal.Gate { id = g; _ } ->
            (match conn_col_of_gate.(g) with
            | Some c -> Bmatrix.set program r c true
            | None -> assert false)
          | Signal.Const _ -> () (* folded away by the builder *)
          | Signal.Input _ | Signal.Input_neg _ -> assert false))
      (Network.gate_fanins net id);
    (* The gate's own write junction on its connection column. *)
    match conn_col_of_gate.(id) with
    | Some c -> Bmatrix.set program r c true
    | None -> ()
  done;
  (* Output write junctions: the producing gate row drives the output
     column; the latch row holds the result pair. *)
  List.iteri
    (fun k signal ->
      (match signal with
      | Signal.Gate { id = g; _ } ->
        Bmatrix.set program (prow g)
          (if mapped.Tech_map.negated.(k) then output_comp_col k else output_main_col k)
          true
      | Signal.Const _ | Signal.Input _ | Signal.Input_neg _ -> ());
      Bmatrix.set program (prow latch_row) (output_main_col k) true;
      Bmatrix.set program (prow latch_row) (output_comp_col k) true)
    (Network.outputs net);
  {
    mapped;
    rows;
    cols;
    conn_col_of_gate;
    program;
    row_assignment;
    physical_rows;
    physical_cols = cols;
  }

let area t = t.rows * t.cols

let function_matrix t =
  let fm = Bmatrix.create ~rows:t.rows ~cols:t.cols false in
  for logical = 0 to t.rows - 1 do
    let r = t.row_assignment.(logical) in
    for c = 0 to t.cols - 1 do
      if Bmatrix.get t.program r c then Bmatrix.set fm logical c true
    done
  done;
  fm

(* The CR machine: INA, then per gate in id (topological) order CFM, EVM
   and CR, then INR and SO, on the same store as {!Sim}. Every row NAND
   reads the whole row. *)
let interpret ?defects ?upset t (dom : _ Store.domain) =
  let net = t.mapped.Tech_map.network in
  let negated = t.mapped.Tech_map.negated in
  let s =
    Store.create ~name:"Multilevel.run" ?defects ?upset dom ~rows:t.physical_rows
      ~cols:t.physical_cols
  in
  let write r c v = if Bmatrix.get t.program r c then Store.write s r c v in
  Store.initialize s;
  let prow logical = t.row_assignment.(logical) in
  let all_cols = Array.init t.physical_cols Fun.id in
  let first_output_col = t.cols - (2 * Array.length negated) in
  let output_col k ~comp = first_output_col + (2 * k) + if comp then 1 else 0 in
  let literal = function
    | Signal.Const b -> Some (dom.const b)
    | Signal.Input i -> Some (dom.lit i true)
    | Signal.Input_neg i -> Some (dom.lit i false)
    | Signal.Gate _ -> None
  in
  let n_gates = Network.gate_count net in
  let consumers = Array.make (max 1 n_gates) [] in
  for id = 0 to n_gates - 1 do
    List.iter
      (function
        | Signal.Gate { id = g; _ } -> consumers.(g) <- id :: consumers.(g)
        | Signal.Const _ | Signal.Input _ | Signal.Input_neg _ -> ())
      (Network.gate_fanins net id)
  done;
  let cr_copies = ref 0 in
  for id = 0 to n_gates - 1 do
    let r = prow id in
    (* CFM: copy the input literals this gate reads. *)
    List.iter
      (fun fanin ->
        Option.iter (fun c -> write r c (Option.get (literal fanin))) (signal_col net fanin))
      (Network.gate_fanins net id);
    (* EVM: evaluate this row. *)
    let result = Store.row_nand s r all_cols in
    (* CR: copy the result into consumer rows via the connection column,
       and onto the output column if this gate is an output driver. *)
    Option.iter
      (fun c ->
        write r c result;
        List.iter (fun consumer -> write (prow consumer) c result) consumers.(id);
        cr_copies := !cr_copies + List.length consumers.(id))
      t.conn_col_of_gate.(id);
    List.iteri
      (fun k signal ->
        match signal with
        | Signal.Gate { id = g; _ } when g = id -> write r (output_col k ~comp:negated.(k)) result
        | Signal.Gate _ | Signal.Const _ | Signal.Input _ | Signal.Input_neg _ -> ())
      (Network.outputs net)
  done;
  (* INR: the latch row completes each result pair, inverting as needed;
     outputs driven directly by inputs or constants come from the latch. *)
  let lr = prow n_gates in
  List.iteri
    (fun k signal ->
      let main = output_col k ~comp:false and comp = output_col k ~comp:true in
      match literal signal with
      | Some v ->
        let v = if negated.(k) then dom.not_ v else v in
        write lr main v;
        write lr comp (dom.not_ v)
      | None ->
        (* The gate drove one column of the pair; invert it onto the other. *)
        let driven, other = if negated.(k) then (comp, main) else (main, comp) in
        write lr other (dom.not_ (Store.col_and s driven t.row_assignment)))
    (Network.outputs net);
  (* SO: read the main output columns. *)
  let outputs =
    Array.init (Array.length negated) (fun k ->
        Store.col_and s (output_col k ~comp:false) t.row_assignment)
  in
  Telemetry.count ~n:(Store.writes s) "multilevel.writes";
  Telemetry.count ~n:!cr_copies "multilevel.cr_copies";
  (outputs, Store.writes s)

let run_impl ?defects ?upset t inputs =
  let n_inputs = Network.n_inputs t.mapped.Tech_map.network in
  interpret ?defects ?upset t (Store.booleans ~name:"Multilevel.run" ~n_inputs inputs)

let run_counting ?defects t inputs = run_impl ?defects t inputs

let run ?defects t inputs = fst (run_impl ?defects t inputs)

let run_with_upsets ?defects ~prng ~upset_rate t inputs =
  fst (run_impl ?defects ~upset:(fun () -> Prng.bernoulli prng upset_rate) t inputs)

let agrees_with_reference ?defects t cover =
  Store.agrees cover (fun dom -> fst (interpret ?defects t dom))
