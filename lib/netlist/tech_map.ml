type mapped = { network : Network.t; negated : bool array }

(* Build a signal computing [expr] ([want] = true) or its complement
   ([want] = false). Negative requests cost one gate less on And nodes and
   one more on Or nodes, which the factored forms exploit at the root. *)
let rec build net expr ~want =
  match expr with
  | Factor.Const b -> Signal.Const (Bool.equal b want)
  | Factor.Lit (var, positive) ->
    if Bool.equal positive want then Signal.Input var else Signal.Input_neg var
  | Factor.And children ->
    let fanins = List.map (fun c -> build net c ~want:true) children in
    if want then Network.and_ net fanins else Network.nand net fanins
  | Factor.Or children ->
    let fanins = List.map (fun c -> build net c ~want:false) children in
    let nand = Network.nand net fanins in
    if want then nand else Network.inv net nand

(* Emitting the complement is free on the crossbar, so pick the polarity
   that synthesizes with fewer gates: an And root is cheaper negated. *)
let preferred_polarity = function
  | Factor.And _ -> false
  | Factor.Const _ | Factor.Lit _ | Factor.Or _ -> true

let default_limit n_inputs = max 2 n_inputs

let map_exprs ~n_inputs ~fanin_limit exprs =
  let limit = Option.value fanin_limit ~default:(default_limit n_inputs) in
  let net = Network.create ~n_inputs ~fanin_limit:limit in
  let emit expr =
    let want = preferred_polarity expr in
    (build net expr ~want, not want)
  in
  let signals, negated = List.split (List.map emit exprs) in
  Network.set_outputs net signals;
  { network = Network.prune net; negated = Array.of_list negated }

type strategy = Quick | Kernel | Flat

let factor_with = function
  | Quick -> Factor.factor
  | Kernel -> Kernel.factor
  | Flat -> Factor.of_cover_flat

let map_cover ?(strategy = Quick) ?fanin_limit f =
  map_exprs ~n_inputs:(Mcx_logic.Cover.arity f) ~fanin_limit [ factor_with strategy f ]

let map_mo ?(strategy = Quick) ?fanin_limit mo =
  let n_outputs = Mcx_logic.Mo_cover.n_outputs mo in
  let exprs =
    List.init n_outputs (fun k ->
        factor_with strategy (Mcx_logic.Mo_cover.output_cover mo k))
  in
  map_exprs ~n_inputs:(Mcx_logic.Mo_cover.n_inputs mo) ~fanin_limit exprs

let eval { network; negated } inputs =
  let raw = Network.eval network inputs in
  Array.mapi (fun k v -> if negated.(k) then not v else v) raw
