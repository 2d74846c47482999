module Util = Mcx_util
module Logic = Mcx_logic
module Netlist = Mcx_netlist
module Crossbar = Mcx_crossbar
module Mapping = Mcx_mapping
module Benchmarks = Mcx_benchmarks
module Experiments = Mcx_experiments

type algorithm = Mcx_mapping.Mapper.algorithm = Hybrid | Exact

let synthesize_two_level ?(include_il_row = false) ?(dual = true) cover =
  let chosen, report, used_dual =
    if dual then Mcx_crossbar.Cost.dual_choice ~include_il_row cover
    else (cover, Mcx_crossbar.Cost.two_level ~include_il_row cover, false)
  in
  (Mcx_crossbar.Layout.of_cover ~include_il_row chosen, report, used_dual)

let synthesize_multi_level ?fanin_limit cover =
  let mapped = Mcx_netlist.Tech_map.map_mo ?fanin_limit cover in
  (Mcx_crossbar.Multilevel.place mapped, Mcx_crossbar.Cost.multi_level mapped)

let map_defect_tolerant ?(include_il_row = false) ~algorithm cover defects =
  Mcx_mapping.Mapper.map_cover
    { Mcx_mapping.Mapper.default with algorithm; include_il_row }
    cover defects

let verify ?defects layout = Mcx_crossbar.Sim.agrees_with_reference ?defects layout

let simulate ?defects layout inputs = Mcx_crossbar.Sim.run ?defects layout inputs
