type programming = Active | Disabled

type defect = Functional | Stuck_open | Stuck_closed

let logic_of_resistance_high = true

let store d v =
  match d with Functional -> v | Stuck_open -> true | Stuck_closed -> false

let reset_value d = store d true

let defect_equal a b =
  match (a, b) with
  | Functional, Functional | Stuck_open, Stuck_open | Stuck_closed, Stuck_closed -> true
  | (Functional | Stuck_open | Stuck_closed), _ -> false

