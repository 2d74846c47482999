external monotonic_ns : unit -> int64 = "mcx_monotonic_ns"

let time f =
  let t0 = monotonic_ns () in
  let result = f () in
  (result, Int64.to_float (Int64.sub (monotonic_ns ()) t0) *. 1e-9)
