(* xoshiro256++ with splitmix64 seeding; reference: Blackman & Vigna,
   "Scrambled linear pseudorandom number generators", 2019. *)

(* The four 64-bit state words s0..s3 live at byte offsets 0, 8, 16 and
   24 of one 32-byte buffer. Native code reads and writes them unboxed,
   where a record of mutable [int64] fields would box a fresh value on
   every write. *)
type t = Bytes.t

let of_words s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  Bytes.set_int64_le t 0 s0;
  Bytes.set_int64_le t 8 s1;
  Bytes.set_int64_le t 16 s2;
  Bytes.set_int64_le t 24 s3;
  t

let splitmix64_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_int64 bits =
  let state = ref bits in
  let s0 = splitmix64_next state in
  let s1 = splitmix64_next state in
  let s2 = splitmix64_next state in
  let s3 = splitmix64_next state in
  of_words s0 s1 s2 s3

let create seed = of_int64 (Int64.of_int seed)

module Key = struct
  type t = int64

  (* splitmix64's finalizer: a bijective avalanche over the full 64 bits. *)
  let finalize z =
    let open Int64 in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  (* For a fixed accumulator [t], [feed t] is a bijection in [v]
     (odd multiply, add and finalize are all invertible), so two keys that
     differ in one mixed-in component can never collide. *)
  let feed t v =
    let open Int64 in
    finalize (add (mul t 0xFF51AFD7ED558CCDL) (add v 0x9E3779B97F4A7C15L))

  let root seed = feed 0x4D43582D4B455921L (* "MCX-KEY!" *) (Int64.of_int seed)
  let int t i = feed t (Int64.of_int i)
  let float t f = feed t (Int64.bits_of_float f)

  let string t s =
    (* Fold every byte, then the length so "ab"+"c" <> "a"+"bc". *)
    let h = ref t in
    String.iter (fun c -> h := feed !h (Int64.of_int (Char.code c))) s;
    int !h (String.length s)

  let to_int64 t = t
end

let of_key key = of_int64 (Key.to_int64 key)
let derive key index = of_key (Key.int key index)

let copy = Bytes.copy

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let bits64 t =
  let open Int64 in
  let s0 = Bytes.get_int64_le t 0 and s1 = Bytes.get_int64_le t 8 in
  let s2 = Bytes.get_int64_le t 16 and s3 = Bytes.get_int64_le t 24 in
  let result = add (rotl (add s0 s3) 23) s0 in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  Bytes.set_int64_le t 0 s0;
  Bytes.set_int64_le t 8 s1;
  Bytes.set_int64_le t 16 (logxor s2 tmp);
  Bytes.set_int64_le t 24 (rotl s3 45);
  result

let split t =
  (* Seed a fresh generator from the parent's stream; xoshiro streams seeded
     through splitmix64 from distinct 64-bit values do not overlap in
     practice for our sample counts. *)
  of_int64 (bits64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling on the top bits to avoid modulo bias. *)
  let bound64 = Int64.of_int bound in
  let rec draw () =
    let raw = Int64.shift_right_logical (bits64 t) 1 in
    let v = Int64.rem raw bound64 in
    (* [raw - v] is the start of raw's residue group. Accept iff the whole
       group [start, start + bound) fits below 2^63, i.e. iff
       start <= max_int - bound + 1; rejecting more over-discards complete
       groups, rejecting less would re-admit the truncated top group. *)
    if Int64.sub raw v > Int64.add (Int64.sub Int64.max_int bound64) 1L then draw ()
    else Int64.to_int v
  in
  draw ()

let float t =
  let raw = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float raw *. 0x1.0p-53

let bool t = Int64.logand (bits64 t) 1L = 1L
let bernoulli t p = float t < p

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Prng.int_in_range: hi < lo";
  lo + int t (hi - lo + 1)

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
  a.(int t (Array.length a))

let sample_without_replacement t ~k ~n =
  if k < 0 || k > n then invalid_arg "Prng.sample_without_replacement";
  (* Floyd's algorithm gives O(k) expected draws; membership is one byte
     per index, and reading the bytes back yields the indices in order. *)
  let chosen = Bytes.make n '\000' in
  for j = n - k to n - 1 do
    let r = int t (j + 1) in
    Bytes.set chosen (if Bytes.get chosen r = '\000' then r else j) '\001'
  done;
  let acc = ref [] in
  for i = n - 1 downto 0 do
    if Bytes.get chosen i <> '\000' then acc := i :: !acc
  done;
  !acc
