open Mcx_util

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  Alcotest.(check bool) "different seeds differ" false (Prng.bits64 a = Prng.bits64 b)

let test_prng_copy () =
  let a = Prng.create 7 in
  let _ = Prng.bits64 a in
  let b = Prng.copy a in
  Alcotest.(check int64) "copy replays" (Prng.bits64 a) (Prng.bits64 b)

let test_prng_split_independent () =
  let a = Prng.create 7 in
  let child = Prng.split a in
  Alcotest.(check bool) "child differs from parent" false (Prng.bits64 child = Prng.bits64 a)

let test_prng_int_bounds () =
  let g = Prng.create 5 in
  for _ = 1 to 1000 do
    let v = Prng.int g 17 in
    Alcotest.(check bool) "0 <= v < 17" true (v >= 0 && v < 17)
  done

let test_prng_int_invalid () =
  let g = Prng.create 5 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0))

let test_prng_float_range () =
  let g = Prng.create 11 in
  for _ = 1 to 1000 do
    let v = Prng.float g in
    Alcotest.(check bool) "[0,1)" true (v >= 0. && v < 1.)
  done

let test_prng_uniformity () =
  let g = Prng.create 23 in
  let counts = Array.make 10 0 in
  let draws = 100_000 in
  for _ = 1 to draws do
    let v = Prng.int g 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      let expected = draws / 10 in
      Alcotest.(check bool) "within 10% of uniform" true
        (abs (c - expected) < expected / 10))
    counts

(* Chi-square goodness of fit against the uniform distribution, for small
   bounds where the rejection-sampling acceptance region matters. The old
   bound check over-rejected the top two residue groups; with 64-bit draws
   the bias was unobservably small, but the chi-square statistic pins the
   distribution down far more tightly than the 10%-per-bucket check above. *)
let test_prng_chi_square () =
  (* (bound, p=0.001 critical value for df = bound - 1) *)
  let cases = [ (7, 22.46); (10, 27.88); (13, 32.91) ] in
  List.iter
    (fun (bound, critical) ->
      let g = Prng.create (31 + bound) in
      let draws = 100_000 in
      let counts = Array.make bound 0 in
      for _ = 1 to draws do
        let v = Prng.int g bound in
        counts.(v) <- counts.(v) + 1
      done;
      let expected = float_of_int draws /. float_of_int bound in
      let chi2 =
        Array.fold_left
          (fun acc c ->
            let d = float_of_int c -. expected in
            acc +. ((d *. d) /. expected))
          0. counts
      in
      Alcotest.(check bool)
        (Printf.sprintf "chi2 %.2f < %.2f for bound %d" chi2 critical bound)
        true (chi2 < critical))
    cases

let test_bernoulli_bias () =
  let g = Prng.create 3 in
  let hits = ref 0 in
  let draws = 50_000 in
  for _ = 1 to draws do
    if Prng.bernoulli g 0.1 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int draws in
  Alcotest.(check bool) "about 10%" true (rate > 0.09 && rate < 0.11)

let test_int_in_range () =
  let g = Prng.create 9 in
  for _ = 1 to 1000 do
    let v = Prng.int_in_range g ~lo:(-3) ~hi:4 in
    Alcotest.(check bool) "in [-3,4]" true (v >= -3 && v <= 4)
  done;
  Alcotest.(check int) "degenerate range" 5 (Prng.int_in_range g ~lo:5 ~hi:5)

let test_shuffle_permutation () =
  let g = Prng.create 13 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle_in_place g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_sample_without_replacement () =
  let g = Prng.create 17 in
  for _ = 1 to 100 do
    let s = Prng.sample_without_replacement g ~k:5 ~n:20 in
    Alcotest.(check int) "5 samples" 5 (List.length s);
    Alcotest.(check int) "distinct" 5 (List.length (List.sort_uniq compare s));
    List.iter (fun i -> Alcotest.(check bool) "in range" true (i >= 0 && i < 20)) s
  done;
  let all = Prng.sample_without_replacement g ~k:8 ~n:8 in
  Alcotest.(check (list int)) "full draw" [ 0; 1; 2; 3; 4; 5; 6; 7 ] all

(* --- Bmatrix --- *)

let test_bmatrix_basic () =
  let m = Bmatrix.create ~rows:3 ~cols:4 false in
  Alcotest.(check int) "rows" 3 (Bmatrix.rows m);
  Alcotest.(check int) "cols" 4 (Bmatrix.cols m);
  Alcotest.(check bool) "init false" false (Bmatrix.get m 2 3);
  Bmatrix.set m 2 3 true;
  Alcotest.(check bool) "set/get" true (Bmatrix.get m 2 3);
  Alcotest.(check int) "count" 1 (Bmatrix.count m)

let test_bmatrix_bounds () =
  let m = Bmatrix.create ~rows:2 ~cols:2 false in
  Alcotest.(check bool) "oob raises" true
    (try
       ignore (Bmatrix.get m 2 0);
       false
     with Invalid_argument _ -> true)

let test_bmatrix_of_lists () =
  let m = Bmatrix.of_int_lists [ [ 1; 0 ]; [ 0; 1 ]; [ 1; 1 ] ] in
  Alcotest.(check int) "count" 4 (Bmatrix.count m);
  Alcotest.(check int) "row count" 2 (Bmatrix.count_row m 2);
  Alcotest.(check int) "col count" 2 (Bmatrix.count_col m 0);
  Alcotest.(check bool) "ragged rejected" true
    (try
       ignore (Bmatrix.of_int_lists [ [ 1 ]; [ 1; 0 ] ]);
       false
     with Invalid_argument _ -> true)

let test_bmatrix_copy_independent () =
  let m = Bmatrix.of_int_lists [ [ 1; 0 ] ] in
  let c = Bmatrix.copy m in
  Bmatrix.set c 0 1 true;
  Alcotest.(check bool) "original untouched" false (Bmatrix.get m 0 1);
  Alcotest.(check bool) "equal detects diff" false (Bmatrix.equal m c)

let test_bmatrix_render () =
  let m = Bmatrix.of_int_lists [ [ 1; 0 ]; [ 0; 1 ] ] in
  Alcotest.(check string) "to_string" "1 0\n0 1" (Bmatrix.to_string m)

(* --- Stats --- *)

let feq = Alcotest.float 1e-9

let test_stats_mean () = Alcotest.check feq "mean" 2.5 (Stats.mean [ 1.; 2.; 3.; 4. ])

let test_stats_percentile () =
  let xs = [ 1.; 2.; 3.; 4.; 5. ] in
  Alcotest.check feq "median" 3. (Stats.median xs);
  Alcotest.check feq "p0" 1. (Stats.percentile xs 0.);
  Alcotest.check feq "p100" 5. (Stats.percentile xs 100.);
  Alcotest.check feq "p25" 2. (Stats.percentile xs 25.)

let test_stats_success_rate () =
  Alcotest.check feq "3 of 4" 75. (Stats.success_rate [ true; true; true; false ])

let test_stats_empty () =
  Alcotest.(check bool) "mean of empty raises" true
    (try
       ignore (Stats.mean []);
       false
     with Invalid_argument _ -> true)

(* --- Stats properties --- *)

(* Bounded rationals with heavy duplication: exercises sort stability
   and interpolation between equal neighbours. *)
let gen_samples =
  QCheck2.Gen.(
    list_size (int_range 1 60) (map (fun i -> float_of_int i /. 8.) (int_range (-400) 400)))

let gen_samples_with_nans =
  QCheck2.Gen.(
    list_size (int_range 1 40)
      (oneof
         [ pure Float.nan; map (fun i -> float_of_int i /. 4.) (int_range (-40) 40) ]))

let close a b =
  let scale = Float.max 1. (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= 1e-9 *. scale

let prop_mean_bounds =
  QCheck2.Test.make ~name:"mean: bounded, order-free, shifts with the data" ~count:300
    gen_samples (fun xs ->
      (* Samples are dyadic rationals of small magnitude, so every sum is
         exact and only the final division rounds. *)
      let mn = List.fold_left Float.min Float.infinity xs in
      let mx = List.fold_left Float.max Float.neg_infinity xs in
      let m = Stats.mean xs in
      mn <= m && m <= mx
      && Stats.mean (List.rev xs) = m
      && close (Stats.mean (List.map (fun x -> x +. 3.5) xs)) (m +. 3.5))

let prop_percentile_bounds =
  QCheck2.Test.make ~name:"percentile: bounded, monotone, exact at 0/100" ~count:300
    gen_samples (fun xs ->
      let mn = List.fold_left Float.min Float.infinity xs in
      let mx = List.fold_left Float.max Float.neg_infinity xs in
      Stats.percentile xs 0. = mn
      && Stats.percentile xs 100. = mx
      && List.for_all
           (fun p ->
             let v = Stats.percentile xs p in
             mn <= v && v <= mx)
           [ 10.; 25.; 50.; 75.; 90. ]
      && Stats.percentile xs 25. <= Stats.percentile xs 75.)

let prop_percentile_tolerates_nan =
  QCheck2.Test.make ~name:"percentile: NaNs sort first, never raise" ~count:300
    gen_samples_with_nans (fun xs ->
      (* Must not raise for any p, and p100 recovers the real maximum as
         long as one non-NaN sample exists (NaNs order first). *)
      let probe p = ignore (Stats.percentile xs p) in
      List.iter probe [ 0.; 50.; 100. ];
      let reals = List.filter (fun x -> not (Float.is_nan x)) xs in
      match reals with
      | [] -> Float.is_nan (Stats.percentile xs 100.)
      | _ -> Stats.percentile xs 100. = List.fold_left Float.max Float.neg_infinity reals)

let prop_success_rate_fold =
  QCheck2.Test.make ~name:"success_rate = 100 * hits / n" ~count:300
    QCheck2.Gen.(list_size (int_range 1 80) bool)
    (fun bs ->
      let hits = List.length (List.filter Fun.id bs) in
      close (Stats.success_rate bs)
        (100. *. float_of_int hits /. float_of_int (List.length bs)))

let stats_qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_mean_bounds;
      prop_percentile_bounds;
      prop_percentile_tolerates_nan;
      prop_success_rate_fold;
    ]

(* --- Texttable --- *)

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_table_render () =
  let t = Texttable.create [ "name"; "value" ] in
  Texttable.add_row t [ "alpha"; "1" ];
  Texttable.add_row t [ "b"; "22" ];
  let rendered = Texttable.render t in
  Alcotest.(check bool) "contains header" true (contains_substring rendered "name");
  Alcotest.(check bool) "aligned right" true (contains_substring rendered "|    22 |")

let test_table_csv () =
  let t = Texttable.create [ "a"; "b" ] in
  Texttable.add_row t [ "x,y"; "plain" ];
  Texttable.add_separator t;
  Texttable.add_row t [ "q\"uote"; "2" ];
  Alcotest.(check string) "csv quoting" "a,b\n\"x,y\",plain\n\"q\"\"uote\",2\n"
    (Texttable.to_csv t)

let test_table_arity () =
  let t = Texttable.create [ "a"; "b" ] in
  Alcotest.(check bool) "arity mismatch raises" true
    (try
       Texttable.add_row t [ "only" ];
       false
     with Invalid_argument _ -> true)

let test_table_center_align () =
  let t = Texttable.create ~aligns:[ Texttable.Center; Texttable.Center ] [ "ab"; "c" ] in
  Texttable.add_row t [ "x"; "wide" ];
  let rendered = Texttable.render t in
  Alcotest.(check bool) "centered cell" true (contains_substring rendered "| x  |");
  Alcotest.(check bool) "empty header rejected" true
    (try
       ignore (Texttable.create []);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "aligns length mismatch rejected" true
    (try
       ignore (Texttable.create ~aligns:[ Texttable.Left ] [ "a"; "b" ]);
       false
     with Invalid_argument _ -> true)

let test_prng_choose () =
  let g = Prng.create 5 in
  let a = [| "x"; "y"; "z" |] in
  for _ = 1 to 50 do
    Alcotest.(check bool) "member" true (Array.mem (Prng.choose g a) a)
  done;
  Alcotest.(check bool) "empty rejected" true
    (try
       ignore (Prng.choose g [||]);
       false
     with Invalid_argument _ -> true)

let test_sample_edges () =
  let g = Prng.create 5 in
  Alcotest.(check (list int)) "k=0" [] (Prng.sample_without_replacement g ~k:0 ~n:10);
  Alcotest.(check bool) "k>n rejected" true
    (try
       ignore (Prng.sample_without_replacement g ~k:3 ~n:2);
       false
     with Invalid_argument _ -> true)

(* --- Prng.Key --- *)

let stream_prefix prng = List.init 4 (fun _ -> Prng.bits64 prng)

(* The raw stream, pinned: the first four xoshiro256++ outputs after
   splitmix64 seeding, for plain seeds, a [Key] chain, [derive] and both
   sides of a [split]. Any change to the state layout or the seeding must
   reproduce these exactly, or every seeded table and golden moves. *)
let test_prng_known_answers () =
  let check name expected g =
    Alcotest.(check (list int64)) name expected (stream_prefix g)
  in
  check "create 0"
    [ 0x53175D61490B23DFL; 0x61DA6F3DC380D507L; 0x5C0FDF91EC9A7BFCL; 0x02EEBF8C3BBE5E1AL ]
    (Prng.create 0);
  check "create 2018"
    [ 0x7898C8CE7EA100D5L; 0x7EC3E38348FDEFB0L; 0x52EC65B7266ABC66L; 0x55E66769A48F1B64L ]
    (Prng.create 2018);
  let key = Prng.Key.(int (string (root 2018) "table2") 3) in
  Alcotest.(check int64) "key chain" 0x2DEE78905EF7359BL (Prng.Key.to_int64 key);
  check "of_key"
    [ 0x601F5FBBF9EFDE9AL; 0x03B8AC0A9B06FD73L; 0xC3AD70B1568C58B1L; 0xD154160471271DA0L ]
    (Prng.of_key key);
  check "derive"
    [ 0x38D6C5202A99D3E0L; 0xFA7745AFF91CC77AL; 0x54F4E31D90A6E86AL; 0x869C9E88A4EEAB28L ]
    (Prng.derive key 5);
  let parent = Prng.create 2018 in
  let child = Prng.split parent in
  check "split child"
    [ 0x359602CA24F79F2CL; 0xC209041D59BB8A73L; 0x9D044217043A5FDCL; 0xCAEE5A5D56F7AA0CL ]
    child;
  check "split parent advances by one draw"
    [ 0x7EC3E38348FDEFB0L; 0x52EC65B7266ABC66L; 0x55E66769A48F1B64L; 0x528A1FCD045ED0B8L ]
    parent

let test_key_deterministic () =
  let k () = Prng.Key.(float (int (string (root 42) "exp") 7) 0.1) in
  Alcotest.(check int64) "same components, same key"
    (Prng.Key.to_int64 (k ()))
    (Prng.Key.to_int64 (k ()));
  Alcotest.(check bool) "same key, same stream" true
    (stream_prefix (Prng.of_key (k ())) = stream_prefix (Prng.of_key (k ())))

let test_key_component_sensitivity () =
  let base = Prng.Key.(string (root 42) "exp") in
  let keys =
    [
      Prng.Key.to_int64 base;
      Prng.Key.to_int64 (Prng.Key.int base 0);
      Prng.Key.to_int64 (Prng.Key.int base 1);
      Prng.Key.to_int64 (Prng.Key.float base 0.1);
      Prng.Key.to_int64 (Prng.Key.float base 0.2);
      Prng.Key.to_int64 (Prng.Key.string base "a");
      Prng.Key.to_int64 (Prng.Key.string base "b");
      Prng.Key.to_int64 (Prng.Key.string base "ab");
      Prng.Key.to_int64 Prng.Key.(string (string base "a") "b");
      Prng.Key.to_int64 (Prng.Key.string (Prng.Key.root 43) "exp");
    ]
  in
  Alcotest.(check int) "all components distinguish the key" (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_derive_streams_distinct () =
  let key = Prng.Key.(string (root 7) "derive") in
  let prefixes = List.init 16 (fun i -> stream_prefix (Prng.derive key i)) in
  Alcotest.(check int) "16 trials, 16 streams" 16
    (List.length (List.sort_uniq compare prefixes));
  Alcotest.(check bool) "derive is reproducible" true
    (stream_prefix (Prng.derive key 5) = stream_prefix (Prng.derive key 5))

(* --- Pool --- *)

let test_pool_map_ordered () =
  let pool = Pool.create ~jobs:4 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let result = Pool.map pool 100 (fun i -> i * i) in
      Alcotest.(check (array int)) "index order" (Array.init 100 (fun i -> i * i)) result;
      Alcotest.(check (array int)) "empty map" [||] (Pool.map pool 0 (fun i -> i)))

let test_pool_matches_sequential () =
  let seq = Pool.create ~jobs:1 () in
  let par = Pool.create ~jobs:4 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown seq; Pool.shutdown par)
    (fun () ->
      let key = Prng.Key.(string (root 3) "pool-test") in
      let trial i = Prng.bits64 (Prng.derive key i) in
      Alcotest.(check bool) "jobs=1 equals jobs=4" true
        (Pool.map seq 257 trial = Pool.map par 257 trial))

let test_pool_exception () =
  let pool = Pool.create ~jobs:4 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Alcotest.(check bool) "exception propagates" true
        (try
           ignore (Pool.map pool 50 (fun i -> if i = 37 then failwith "boom" else i));
           false
         with Failure msg -> msg = "boom");
      (* the pool survives a failed batch *)
      Alcotest.(check (array int)) "usable after failure" [| 0; 1; 2 |]
        (Pool.map pool 3 Fun.id))

let test_pool_nested () =
  let pool = Pool.create ~jobs:4 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      (* a nested map from inside a worker must fall back to inline
         execution rather than deadlock waiting on occupied workers *)
      let result =
        Pool.map pool 8 (fun i ->
            Array.fold_left ( + ) 0 (Pool.map pool 5 (fun j -> (10 * i) + j)))
      in
      let expected = Array.init 8 (fun i -> (50 * i) + 10) in
      Alcotest.(check (array int)) "nested map inline" expected result)

let test_pool_jobs () =
  Alcotest.(check bool) "default_jobs positive" true (Pool.default_jobs () > 0);
  let pool = Pool.create ~jobs:1 () in
  Alcotest.(check int) "jobs=1" 1 (Pool.jobs pool);
  Alcotest.(check (array int)) "jobs=1 map" [| 0; 1; 2; 3 |] (Pool.map pool 4 Fun.id);
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *)

(* --- Lru --- *)

let test_lru_basics () =
  let c = Lru.create ~capacity:2 () in
  Alcotest.(check int) "capacity" 2 (Lru.capacity c);
  Alcotest.(check (option int)) "cold miss" None (Lru.find c "a");
  Lru.put c "a" 1;
  Lru.put c "b" 2;
  Alcotest.(check (option int)) "hit" (Some 1) (Lru.find c "a");
  (* "a" was just promoted, so the third insert evicts "b" *)
  Lru.put c "c" 3;
  Alcotest.(check (option int)) "lru evicted" None (Lru.peek c "b");
  Alcotest.(check (option int)) "mru survives" (Some 1) (Lru.peek c "a");
  Alcotest.(check (list (pair string int))) "recency order"
    [ ("c", 3); ("a", 1) ]
    (Lru.to_list c);
  let s = Lru.stats c in
  Alcotest.(check int) "hits" 1 s.Lru.hits;
  Alcotest.(check int) "misses" 1 s.Lru.misses;
  Alcotest.(check int) "insertions" 3 s.Lru.insertions;
  Alcotest.(check int) "evictions" 1 s.Lru.evictions

let test_lru_replace_promotes () =
  let c = Lru.create ~capacity:2 () in
  Lru.put c "a" 1;
  Lru.put c "b" 2;
  Lru.put c "a" 10;
  (* replacing "a" promoted it, so "b" goes next *)
  Lru.put c "c" 3;
  Alcotest.(check (option int)) "replaced value" (Some 10) (Lru.peek c "a");
  Alcotest.(check (option int)) "b evicted" None (Lru.peek c "b");
  Alcotest.(check int) "replace is not an insertion" 3 (Lru.stats c).Lru.insertions

let test_lru_peek_is_pure () =
  let c = Lru.create ~capacity:2 () in
  Lru.put c "a" 1;
  Lru.put c "b" 2;
  ignore (Lru.peek c "a" : int option);
  (* peek must not promote: "a" is still the LRU entry *)
  Lru.put c "c" 3;
  Alcotest.(check (option int)) "peek does not promote" None (Lru.peek c "a");
  let s = Lru.stats c in
  Alcotest.(check int) "peek is not counted" 0 (s.Lru.hits + s.Lru.misses)

let test_lru_degenerate () =
  let c = Lru.create ~capacity:0 () in
  Lru.put c "a" 1;
  Alcotest.(check (option int)) "capacity 0 stores nothing" None (Lru.find c "a");
  Alcotest.(check int) "stays empty" 0 (Lru.length c);
  Alcotest.(check int) "no phantom evictions" 0 (Lru.stats c).Lru.evictions;
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Lru.create: negative capacity") (fun () ->
      ignore (Lru.create ~capacity:(-1) () : int Lru.t))

(* Model-based property: an association list (MRU first) trimmed to
   capacity predicts contents, order, every lookup result and every
   counter. *)
type lru_op = Lru_put of int | Lru_find of int

let gen_lru_ops =
  QCheck2.Gen.(
    pair (int_range 0 6)
      (list_size (int_range 0 120)
         (oneof
            [
              map (fun k -> Lru_put k) (int_range 0 9);
              map (fun k -> Lru_find k) (int_range 0 9);
            ])))

let prop_lru_matches_model =
  QCheck2.Test.make ~name:"lru agrees with a reference model" ~count:500 gen_lru_ops
    (fun (cap, ops) ->
      let c = Lru.create ~capacity:cap () in
      let model = ref [] in
      let hits = ref 0 and misses = ref 0 in
      let insertions = ref 0 and evictions = ref 0 in
      let finds = ref 0 in
      let ok = ref true in
      List.iteri
        (fun stamp op ->
          match op with
          | Lru_put k ->
            let key = "k" ^ string_of_int k in
            if cap > 0 then begin
              let existed = List.mem_assoc key !model in
              model := (key, stamp) :: List.remove_assoc key !model;
              if not existed then begin
                incr insertions;
                if List.length !model > cap then begin
                  model := List.filteri (fun i _ -> i < cap) !model;
                  incr evictions
                end
              end
            end;
            Lru.put c key stamp
          | Lru_find k ->
            let key = "k" ^ string_of_int k in
            incr finds;
            let expected = List.assoc_opt key !model in
            (match expected with
            | Some v ->
              incr hits;
              model := (key, v) :: List.remove_assoc key !model
            | None -> incr misses);
            if Lru.find c key <> expected then ok := false)
        ops;
      let s = Lru.stats c in
      !ok
      && Lru.to_list c = !model
      && Lru.length c <= max cap 0
      && s.Lru.hits = !hits
      && s.Lru.misses = !misses
      && s.Lru.hits + s.Lru.misses = !finds
      && s.Lru.insertions = !insertions
      && s.Lru.evictions = !evictions)

let lru_qcheck_cases = List.map QCheck_alcotest.to_alcotest [ prop_lru_matches_model ]

(* --- Timing --- *)

let test_timing () =
  let v, dt = Timing.time (fun () -> 41 + 1) in
  Alcotest.(check int) "result" 42 v;
  Alcotest.(check bool) "nonnegative" true (dt >= 0.)

let () =
  Alcotest.run "mcx_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_prng_int_invalid;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "uniformity" `Quick test_prng_uniformity;
          Alcotest.test_case "chi-square uniformity" `Quick test_prng_chi_square;
          Alcotest.test_case "bernoulli bias" `Quick test_bernoulli_bias;
          Alcotest.test_case "int_in_range" `Quick test_int_in_range;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
          Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
          Alcotest.test_case "choose" `Quick test_prng_choose;
          Alcotest.test_case "sample edges" `Quick test_sample_edges;
          Alcotest.test_case "known answers" `Quick test_prng_known_answers;
        ] );
      ( "bmatrix",
        [
          Alcotest.test_case "basic" `Quick test_bmatrix_basic;
          Alcotest.test_case "bounds" `Quick test_bmatrix_bounds;
          Alcotest.test_case "of_lists" `Quick test_bmatrix_of_lists;
          Alcotest.test_case "copy independent" `Quick test_bmatrix_copy_independent;
          Alcotest.test_case "render" `Quick test_bmatrix_render;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "success rate" `Quick test_stats_success_rate;
          Alcotest.test_case "empty input" `Quick test_stats_empty;
        ] );
      ("stats properties", stats_qcheck_cases);
      ( "texttable",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "csv" `Quick test_table_csv;
          Alcotest.test_case "arity" `Quick test_table_arity;
          Alcotest.test_case "center align & errors" `Quick test_table_center_align;
        ] );
      ( "key",
        [
          Alcotest.test_case "deterministic" `Quick test_key_deterministic;
          Alcotest.test_case "component sensitivity" `Quick test_key_component_sensitivity;
          Alcotest.test_case "derive distinct" `Quick test_derive_streams_distinct;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map ordered" `Quick test_pool_map_ordered;
          Alcotest.test_case "parallel = sequential" `Quick test_pool_matches_sequential;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "nested map" `Quick test_pool_nested;
          Alcotest.test_case "jobs" `Quick test_pool_jobs;
        ] );
      ( "lru",
        [
          Alcotest.test_case "basics" `Quick test_lru_basics;
          Alcotest.test_case "replace promotes" `Quick test_lru_replace_promotes;
          Alcotest.test_case "peek is pure" `Quick test_lru_peek_is_pure;
          Alcotest.test_case "degenerate capacities" `Quick test_lru_degenerate;
        ] );
      ("lru properties", lru_qcheck_cases);
      ("timing", [ Alcotest.test_case "time" `Quick test_timing ]);
    ]
