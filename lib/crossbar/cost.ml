open Mcx_logic

type report = {
  rows : int;
  cols : int;
  area : int;
  switches : int;
  inclusion_ratio : float;
}

let ratio ~switches ~area =
  if area = 0 then 0. else 100. *. float_of_int switches /. float_of_int area

let two_level_area ?(include_il_row = false) ~n_inputs ~n_outputs ~n_products () =
  Geometry.area (Geometry.create ~include_il_row ~n_inputs ~n_outputs ~n_products ())

let two_level ?(include_il_row = false) cover =
  let n_inputs = Mo_cover.n_inputs cover and n_outputs = Mo_cover.n_outputs cover in
  let geometry =
    Geometry.create ~include_il_row ~n_inputs ~n_outputs
      ~n_products:(Mo_cover.product_count cover) ()
  in
  let rows = Geometry.rows geometry and cols = Geometry.cols geometry in
  let area = rows * cols in
  (* The function matrix's ones (DESIGN §2's used_switches): each literal,
     each AND-plane connection, each output row's result pair, and both
     literal columns of every input on the IL row. *)
  let switches =
    Mo_cover.literal_count cover + Mo_cover.connection_count cover + (2 * n_outputs)
    + if include_il_row then 2 * n_inputs else 0
  in
  { rows; cols; area; switches; inclusion_ratio = ratio ~switches ~area }

let multi_level (mapped : Mcx_netlist.Tech_map.mapped) =
  let net = mapped.Mcx_netlist.Tech_map.network in
  let gates = Mcx_netlist.Network.gate_count net in
  let connections = Mcx_netlist.Network.inner_connection_count net in
  let n_inputs = Mcx_netlist.Network.n_inputs net in
  let n_outputs = Array.length mapped.Mcx_netlist.Tech_map.negated in
  let rows = gates + 1 in
  let cols = (2 * n_inputs) + connections + (2 * n_outputs) in
  let area = rows * cols in
  (* Switches: every gate fan-in, each inner gate's write junction on its
     connection column, the output write junctions, and the latch row's
     result pair per output. *)
  let switches =
    Mcx_netlist.Network.total_fanin net + connections + n_outputs + (2 * n_outputs)
  in
  { rows; cols; area; switches; inclusion_ratio = ratio ~switches ~area }

let multi_level_area mapped = (multi_level mapped).area

let two_level_steps = 7

let multi_level_steps ?(level_parallel = false) (mapped : Mcx_netlist.Tech_map.mapped) =
  let net = mapped.Mcx_netlist.Tech_map.network in
  let rounds =
    if level_parallel then Mcx_netlist.Network.levels net
    else Mcx_netlist.Network.gate_count net
  in
  (3 * rounds) + 4

let two_level_writes ?(include_il_row = false) cover =
  let report = two_level ~include_il_row cover in
  let latch = if include_il_row then 2 * Mo_cover.n_inputs cover else 0 in
  report.area + latch + Mo_cover.literal_count cover + Mo_cover.connection_count cover
  + Mo_cover.n_outputs cover

let multi_level_writes (mapped : Mcx_netlist.Tech_map.mapped) =
  let net = mapped.Mcx_netlist.Tech_map.network in
  let report = multi_level mapped in
  report.area
  + Mcx_netlist.Network.total_fanin net
  + Mcx_netlist.Network.inner_connection_count net
  + (2 * Array.length mapped.Mcx_netlist.Tech_map.negated)

let dual_choice ?(include_il_row = false) cover =
  let direct = two_level ~include_il_row cover in
  let negated = Mo_cover.complement cover in
  let dual = two_level ~include_il_row negated in
  if dual.area < direct.area then (negated, dual, true) else (cover, direct, false)
