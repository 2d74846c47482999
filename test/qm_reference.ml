(* The Quine–McCluskey minimizer as it stood before primes moved to int
   codes and the greedy cover to incremental gains: the reference the
   library's [Qm] must match cube for cube, in the same order. It rescans
   every prime against every minterm for each pick, so keep its inputs
   small. Telemetry is left to the library version. *)

open Mcx_logic

(* Implicants are coded as (bits, dashes): [dashes] has a 1 where the
   variable is absent; [bits] holds the literal polarity on non-dash
   positions (and 0 on dash positions, keeping the coding canonical). *)

type imp = { bits : int; dashes : int }

let imp_compare a b =
  let c = Int.compare a.dashes b.dashes in
  if c <> 0 then c else Int.compare a.bits b.bits

module ImpSet = Set.Make (struct
  type t = imp

  let compare = imp_compare
end)

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + (x land 1)) in
  go x 0

let try_merge a b =
  if a.dashes <> b.dashes then None
  else begin
    let diff = a.bits lxor b.bits in
    if diff <> 0 && diff land (diff - 1) = 0 then
      Some { bits = a.bits land lnot diff; dashes = a.dashes lor diff }
    else None
  end

let cube_of_imp ~arity imp =
  Cube.of_literals
    (Array.init arity (fun i ->
         if (imp.dashes lsr i) land 1 = 1 then Literal.Absent
         else if (imp.bits lsr i) land 1 = 1 then Literal.Pos
         else Literal.Neg))

let primes_imps tt =
  let minterms = Truthtable.minterm_indices tt in
  let current = ref (List.map (fun m -> { bits = m; dashes = 0 }) minterms) in
  let prime_acc = ref ImpSet.empty in
  let continue_ = ref (!current <> []) in
  while !continue_ do
    (* Group by (dashes, popcount bits) so only adjacent groups are paired. *)
    let groups = Hashtbl.create 64 in
    List.iter
      (fun imp ->
        let key = (imp.dashes, popcount imp.bits) in
        Hashtbl.replace groups key (imp :: (Option.value ~default:[] (Hashtbl.find_opt groups key))))
      !current;
    let used = Hashtbl.create 64 in
    let next = ref ImpSet.empty in
    Hashtbl.iter
      (fun (dashes, ones) group ->
        match Hashtbl.find_opt groups (dashes, ones + 1) with
        | None -> ()
        | Some upper ->
          List.iter
            (fun a ->
              List.iter
                (fun b ->
                  match try_merge a b with
                  | None -> ()
                  | Some m ->
                    Hashtbl.replace used a ();
                    Hashtbl.replace used b ();
                    next := ImpSet.add m !next)
                upper)
            group)
      groups;
    List.iter
      (fun imp -> if not (Hashtbl.mem used imp) then prime_acc := ImpSet.add imp !prime_acc)
      !current;
    current := ImpSet.elements !next;
    continue_ := !current <> []
  done;
  ImpSet.elements !prime_acc

let primes tt = List.map (cube_of_imp ~arity:(Truthtable.arity tt)) (primes_imps tt)

let imp_covers imp m = m land lnot imp.dashes = imp.bits

let minimize tt =
  let arity = Truthtable.arity tt in
  let minterms = Array.of_list (Truthtable.minterm_indices tt) in
  let prime_list = Array.of_list (primes_imps tt) in
  let n_minterms = Array.length minterms in
  if n_minterms = 0 then Cover.empty arity
  else begin
    let covered = Array.make n_minterms false in
    let chosen = ref [] in
    let choose p =
      chosen := p :: !chosen;
      Array.iteri (fun i m -> if imp_covers p m then covered.(i) <- true) minterms
    in
    (* Essential primes: minterms covered by exactly one prime. *)
    let essential = Hashtbl.create 16 in
    Array.iter
      (fun m ->
        let covering = Array.to_list (Array.of_seq (Seq.filter (fun p -> imp_covers p m) (Array.to_seq prime_list))) in
        match covering with
        | [ only ] -> Hashtbl.replace essential only ()
        | [] | _ :: _ :: _ -> ())
      minterms;
    Hashtbl.iter (fun p () -> choose p) essential;
    (* Greedy completion: repeatedly take the prime covering the most
       still-uncovered minterms; ties go to the larger cube. *)
    let all_covered () = Array.for_all Fun.id covered in
    while not (all_covered ()) do
      let gain p =
        let g = ref 0 in
        Array.iteri (fun i m -> if (not covered.(i)) && imp_covers p m then incr g) minterms;
        !g
      in
      let best = ref None in
      Array.iter
        (fun p ->
          let g = gain p in
          if g > 0 then begin
            let key = (g, popcount p.dashes) in
            match !best with
            | Some (_, best_key) when compare key best_key <= 0 -> ()
            | Some _ | None -> best := Some (p, key)
          end)
        prime_list;
      match !best with
      | Some (p, _) -> choose p
      | None -> assert false (* every minterm is covered by some prime *)
    done;
    Cover.create ~arity (List.map (cube_of_imp ~arity) !chosen)
  end
