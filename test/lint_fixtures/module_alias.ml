(* Typed rules resolve module aliases: expected at lines 8, 10, 12, 14,
   16 and 19. *)
module S = Sys
module M = struct module T = Stdlib.Sys end
module R = Random
module H = Hashtbl

let home () = S.getenv "HOME"

let nested () = M.T.getenv "HOME"

let roll () = R.int 6

let clock () = let module U = Unix in U.gettimeofday ()

let local () = let module L = struct module T = Sys end in L.T.getenv "HOME"

let mem (tbl : (Mcx_logic.Cube.t, int) H.t) (c : Mcx_logic.Cube.t) =
  H.mem tbl c
