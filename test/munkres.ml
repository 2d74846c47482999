(* Shortest-augmenting-path assignment with potentials (Jonker–Volgenant);
   1-indexed internal arrays, following the classical formulation. *)

let solve cost =
  let n = Array.length cost in
  if n = 0 then (0, [||])
  else begin
    let m = Array.length cost.(0) in
    Array.iter
      (fun row -> if Array.length row <> m then invalid_arg "Munkres.solve: ragged matrix")
      cost;
    if n > m then invalid_arg "Munkres.solve: more rows than columns";
    let inf = max_int / 2 in
    let u = Array.make (n + 1) 0 in
    let v = Array.make (m + 1) 0 in
    let p = Array.make (m + 1) 0 in
    let way = Array.make (m + 1) 0 in
    for i = 1 to n do
      p.(0) <- i;
      let j0 = ref 0 in
      let minv = Array.make (m + 1) inf in
      let used = Array.make (m + 1) false in
      let continue_ = ref true in
      while !continue_ do
        used.(!j0) <- true;
        let i0 = p.(!j0) in
        let delta = ref inf and j1 = ref (-1) in
        for j = 1 to m do
          if not used.(j) then begin
            let cur = cost.(i0 - 1).(j - 1) - u.(i0) - v.(j) in
            if cur < minv.(j) then begin
              minv.(j) <- cur;
              way.(j) <- !j0
            end;
            if minv.(j) < !delta then begin
              delta := minv.(j);
              j1 := j
            end
          end
        done;
        for j = 0 to m do
          if used.(j) then begin
            u.(p.(j)) <- u.(p.(j)) + !delta;
            v.(j) <- v.(j) - !delta
          end
          else minv.(j) <- minv.(j) - !delta
        done;
        j0 := !j1;
        if p.(!j0) = 0 then continue_ := false
      done;
      (* Augment along the found path. *)
      let j0 = ref !j0 in
      while !j0 <> 0 do
        let j1 = way.(!j0) in
        p.(!j0) <- p.(j1);
        j0 := j1
      done
    done;
    let assignment = Array.make n (-1) in
    for j = 1 to m do
      if p.(j) > 0 then assignment.(p.(j) - 1) <- j - 1
    done;
    let total = Array.fold_left ( + ) 0 (Array.mapi (fun i j -> cost.(i).(j)) assignment) in
    (total, assignment)
  end

let feasible_zero cost =
  let total, assignment = solve cost in
  if total = 0 then Some assignment else None
