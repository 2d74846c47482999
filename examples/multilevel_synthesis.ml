(* Two-level vs multi-level synthesis across real circuits (§III).

   For each arithmetic benchmark this example synthesizes both crossbar
   designs, prints the area trade-off, and checks the multi-level design
   against the function. It also demonstrates the dual optimization: the
   crossbar computes f and f' natively, so the cheaper of the two covers
   is implemented.

   Run with:  dune exec examples/multilevel_synthesis.exe *)

let () =
  let benchmarks = [ "rd53"; "squar5"; "sqrt8"; "inc"; "t481" ] in
  let table =
    Mcx.Util.Texttable.create
      [ "bench"; "I"; "O"; "P"; "2-level area"; "multi-level area"; "winner"; "dual?" ]
  in
  List.iter
    (fun name ->
      let bench = Mcx.Benchmarks.Suite.find name in
      let cover = Mcx.Benchmarks.Suite.cover bench in
      let _, two, used_dual = Mcx.synthesize_two_level cover in
      let ml, multi = Mcx.synthesize_multi_level cover in
      if not (Mcx.Crossbar.Multilevel.agrees_with_reference ml cover) then
        failwith (name ^ ": multi-level crossbar does not match the function");
      Mcx.Util.Texttable.add_row table
        [
          name;
          string_of_int (Mcx.Logic.Mo_cover.n_inputs cover);
          string_of_int (Mcx.Logic.Mo_cover.n_outputs cover);
          string_of_int (Mcx.Logic.Mo_cover.product_count cover);
          string_of_int two.Mcx.Crossbar.Cost.area;
          string_of_int multi.Mcx.Crossbar.Cost.area;
          (if multi.Mcx.Crossbar.Cost.area < two.Mcx.Crossbar.Cost.area then "multi"
           else "two");
          (if used_dual then "yes" else "no");
        ])
    benchmarks;
  print_string (Mcx.Util.Texttable.render table);
  print_newline ();

  (* Show what multi-level evaluation actually does: the factored NAND
     network of t481 (an AND of XORs) collapses 256 two-level products
     into a handful of shared gates, evaluated row by row. *)
  let t481 = Mcx.Benchmarks.Suite.cover (Mcx.Benchmarks.Suite.find "t481") in
  let mapped = Mcx.Netlist.Tech_map.map_mo t481 in
  let net = mapped.Mcx.Netlist.Tech_map.network in
  Printf.printf
    "t481 as a NAND network: %d gates in %d levels replace %d two-level products\n"
    (Mcx.Netlist.Network.gate_count net)
    (Mcx.Netlist.Network.levels net)
    (Mcx.Logic.Mo_cover.product_count t481)
