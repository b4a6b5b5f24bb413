(* Tests for the SplitMix64 generator and sampling utilities. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_determinism () =
  let a = Prng.Splitmix.create 42 and b = Prng.Splitmix.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.Splitmix.next64 a) (Prng.Splitmix.next64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.Splitmix.create 1 and b = Prng.Splitmix.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.Splitmix.next64 a = Prng.Splitmix.next64 b then incr same
  done;
  check_bool "streams differ" true (!same < 4)

let test_copy_independent () =
  let a = Prng.Splitmix.create 7 in
  ignore (Prng.Splitmix.next64 a);
  let b = Prng.Splitmix.copy a in
  let xa = Prng.Splitmix.next64 a in
  let xb = Prng.Splitmix.next64 b in
  Alcotest.(check int64) "copy continues identically" xa xb;
  ignore (Prng.Splitmix.next64 a);
  (* advancing a further must not affect b *)
  let b2 = Prng.Splitmix.copy b in
  Alcotest.(check int64) "b unaffected" (Prng.Splitmix.next64 b) (Prng.Splitmix.next64 b2)

let test_split_diverges () =
  let a = Prng.Splitmix.create 9 in
  let b = Prng.Splitmix.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.Splitmix.next64 a = Prng.Splitmix.next64 b then incr same
  done;
  check_bool "split stream differs" true (!same < 4)

let test_int_bounds () =
  let g = Prng.Splitmix.create 3 in
  for _ = 1 to 10_000 do
    let v = Prng.Splitmix.int g 7 in
    check_bool "in range" true (v >= 0 && v < 7)
  done

let test_int_rejects_bad_bound () =
  let g = Prng.Splitmix.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Splitmix.int: bound must be positive")
    (fun () -> ignore (Prng.Splitmix.int g 0))

let test_int_in_range () =
  let g = Prng.Splitmix.create 4 in
  for _ = 1 to 1000 do
    let v = Prng.Splitmix.int_in g (-5) 5 in
    check_bool "in inclusive range" true (v >= -5 && v <= 5)
  done;
  check_int "singleton range" 3 (Prng.Splitmix.int_in g 3 3)

let test_int_uniformity () =
  let g = Prng.Splitmix.create 5 in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Prng.Splitmix.int g 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      check_bool
        (Printf.sprintf "bucket %d near uniform (%d)" i c)
        true
        (abs (c - (n / 10)) < n / 50))
    counts

let test_float_range () =
  let g = Prng.Splitmix.create 6 in
  for _ = 1 to 10_000 do
    let v = Prng.Splitmix.float g 2.5 in
    check_bool "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_bernoulli_extremes () =
  let g = Prng.Splitmix.create 8 in
  for _ = 1 to 100 do
    check_bool "p=0 is false" false (Prng.Splitmix.bernoulli g 0.0);
    check_bool "p=1 is true" true (Prng.Splitmix.bernoulli g 1.0)
  done

let test_bernoulli_rate () =
  let g = Prng.Splitmix.create 11 in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Prng.Splitmix.bernoulli g 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check_bool (Printf.sprintf "rate %.3f near 0.3" rate) true (abs_float (rate -. 0.3) < 0.01)

let test_bool_rate () =
  let g = Prng.Splitmix.create 12 in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Prng.Splitmix.bool g then incr hits
  done;
  check_bool "fair coin" true (abs (!hits - (n / 2)) < n / 50)

(* --- Sample --- *)

let test_shuffle_is_permutation () =
  let g = Prng.Splitmix.create 13 in
  let a = Array.init 100 (fun i -> i) in
  Slots.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 (fun i -> i)) sorted

let test_permutation_valid () =
  let g = Prng.Splitmix.create 14 in
  let p = Slots.permutation g 50 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "valid permutation" (Array.init 50 (fun i -> i)) sorted

let test_choice_singleton () =
  let g = Prng.Splitmix.create 15 in
  check_int "only element" 7 (Prng.Sample.choice g [| 7 |])

let test_choice_empty () =
  let g = Prng.Splitmix.create 15 in
  Alcotest.check_raises "empty" (Invalid_argument "Sample.choice: empty array") (fun () ->
      ignore (Prng.Sample.choice g [||]))

let test_sample_without_replacement () =
  let g = Prng.Splitmix.create 16 in
  let s = Prng.Sample.sample_without_replacement g 10 100 in
  check_int "size" 10 (Array.length s);
  let seen = Hashtbl.create 10 in
  Array.iter
    (fun v ->
      check_bool "in range" true (v >= 0 && v < 100);
      check_bool "distinct" false (Hashtbl.mem seen v);
      Hashtbl.add seen v ())
    s

let test_sample_full () =
  let g = Prng.Splitmix.create 17 in
  let s = Prng.Sample.sample_without_replacement g 20 20 in
  let sorted = Array.copy s in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "all elements" (Array.init 20 (fun i -> i)) sorted

let test_multinomial_conserves () =
  let g = Prng.Splitmix.create 18 in
  let occ = Prng.Sample.multinomial_tokens g ~tokens:1234 ~bins:17 in
  check_int "bins" 17 (Array.length occ);
  check_int "total conserved" 1234 (Array.fold_left ( + ) 0 occ)

let test_geometric_split_conserves () =
  let g = Prng.Splitmix.create 19 in
  for total = 0 to 50 do
    let parts = 1 + (total mod 7) in
    let s = Prng.Sample.geometric_split g ~total ~parts in
    check_int "parts" parts (Array.length s);
    check_int "total conserved" total (Array.fold_left ( + ) 0 s);
    Array.iter (fun x -> check_bool "non-negative" true (x >= 0)) s
  done

let prop_int_in_range =
  QCheck.Test.make ~name:"Splitmix.int always in range" ~count:1000
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let g = Prng.Splitmix.create seed in
      let v = Prng.Splitmix.int g bound in
      v >= 0 && v < bound)

let prop_split_conserves =
  QCheck.Test.make ~name:"geometric_split conserves mass" ~count:500
    QCheck.(pair (int_range 0 500) (int_range 1 50))
    (fun (total, parts) ->
      let g = Prng.Splitmix.create (total + (parts * 1000)) in
      let s = Prng.Sample.geometric_split g ~total ~parts in
      Array.fold_left ( + ) 0 s = total && Array.for_all (fun x -> x >= 0) s)

(* The power-of-two fast path of [int] against the general rejection
   loop, written out here on a copied generator: same values and the
   same generator state after every draw, for every bound 2^0..2^61. *)
let prop_int_pow2_is_rejection_loop =
  QCheck.Test.make ~name:"Splitmix.int 2^k = rejection loop, value and state"
    ~count:50 QCheck.int
    (fun seed ->
      let rejection g bound =
        let rec go () =
          let v = Int64.to_int (Int64.shift_right_logical (Prng.Splitmix.next64 g) 2) in
          let x = v mod bound in
          if v - x + (bound - 1) >= 0 then x else go ()
        in
        go ()
      in
      let g = Prng.Splitmix.create seed in
      let g' = Prng.Splitmix.copy g in
      let ok = ref true in
      for k = 0 to 61 do
        for _ = 1 to 20 do
          let a = Prng.Splitmix.int g (1 lsl k) in
          let b = rejection g' (1 lsl k) in
          if a <> b
             || Prng.Splitmix.next64 (Prng.Splitmix.copy g)
                <> Prng.Splitmix.next64 (Prng.Splitmix.copy g')
          then ok := false
        done
      done;
      !ok)

(* Whether two generators are at the same point of their streams. *)
let same_state g g' =
  let next r = Prng.Splitmix.next64 (Prng.Splitmix.copy r) in
  next g = next g'

(* [add_uniform] against [c] written-out [int] placements on a copied
   generator: the same array and the same generator state, for lengths
   1, 2^k and not powers of two, and counts 0 to a few thousand. *)
let prop_add_uniform_is_int_loop =
  QCheck.Test.make ~name:"Splitmix.add_uniform = int loop, array and state" ~count:20
    QCheck.int
    (fun seed ->
      let g = Prng.Splitmix.create seed in
      let g' = Prng.Splitmix.copy g in
      let counts = Prng.Splitmix.create (seed + 1) in
      List.for_all
        (fun len ->
          List.for_all
            (fun c ->
              let a = Array.init len (fun i -> i land 3) in
              let b = Array.copy a in
              Prng.Splitmix.add_uniform g a c;
              for _ = 1 to c do
                let u = Prng.Splitmix.int g' len in
                b.(u) <- b.(u) + 1
              done;
              a = b && same_state g g')
            [ 0; 1; 2; 3; 1 + Prng.Splitmix.int counts 4000 ])
        [ 1; 2; 4; 64; 4096; 3; 5; 7; 100; 1000; 4095 ])

(* The Fisher–Yates loop over [int], written out. *)
let shuffle_by_int g a =
  for i = Array.length a - 1 downto 1 do
    let j = Prng.Splitmix.int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(* [shuffle] against that loop on a copied generator: the same
   permutation and the same generator state, for empty, power-of-two
   and other lengths. *)
let prop_shuffle_is_int_loop =
  QCheck.Test.make ~name:"Splitmix.shuffle = int loop, array and state" ~count:20
    QCheck.int
    (fun seed ->
      let g = Prng.Splitmix.create seed in
      let g' = Prng.Splitmix.copy g in
      List.for_all
        (fun len ->
          let a = Array.init len (fun i -> i) in
          let b = Array.copy a in
          Slots.shuffle g a;
          shuffle_by_int g' b;
          a = b && same_state g g')
        [ 0; 1; 2; 3; 4; 7; 8; 9; 64; 100; 1000; 4095; 4096 ])

(* SplitMix64's output function, inverted, so that a test can pick the
   draw a seed makes.  Each xorshift is undone by iterating it; each
   multiplication by the inverse of its odd constant mod 2^64. *)
let unmix64 z =
  let unxorshift y k =
    let x = ref y in
    for _ = 1 to 64 / k do
      x := Int64.logxor y (Int64.shift_right_logical !x k)
    done;
    !x
  in
  let inverse c =
    let i = ref c in
    for _ = 1 to 6 do
      i := Int64.mul !i (Int64.sub 2L (Int64.mul c !i))
    done;
    !i
  in
  let z = unxorshift z 31 in
  let z = unxorshift (Int64.mul z (inverse 0x94D049BB133111EBL)) 27 in
  unxorshift (Int64.mul z (inverse 0xBF58476D1CE4E5B9L)) 30

(* A seed whose first draw falls in the last, incomplete block of
   [0, 2^62) for [bound], so that [int g bound] rejects it and draws
   again.  [create s] sets the state to mix64 s and a draw adds the
   golden gamma and mixes, so both steps are inverted; a preimage that
   is not a 63-bit int is skipped. *)
let rejecting_seed bound =
  (* The top 62 bits v of a draw are rejected for v in
     [max_int - (max_int mod bound), max_int]. *)
  let lowest = max_int - (max_int mod bound) in
  let rec search v low =
    if v < lowest then invalid_arg "rejecting_seed: no 63-bit preimage";
    let z = Int64.logor (Int64.shift_left (Int64.of_int v) 2) (Int64.of_int low) in
    let seed = unmix64 (Int64.sub (unmix64 z) 0x9E3779B97F4A7C15L) in
    if Int64.of_int (Int64.to_int seed) = seed then Int64.to_int seed
    else if low < 3 then search v (low + 1)
    else search (v - 1) 0
  in
  search max_int 0

(* The rejection path of [add_uniform] itself: from a seed whose first
   draw [int] rejects, one placement takes two draws and lands where the
   written-out loop puts it, for lengths that are not powers of two. *)
let test_add_uniform_rejection () =
  List.iter
    (fun len ->
      let seed = rejecting_seed len in
      let v =
        Int64.to_int
          (Int64.shift_right_logical (Prng.Splitmix.next64 (Prng.Splitmix.create seed)) 2)
      in
      check_bool (Printf.sprintf "length %d: first draw rejected" len) true
        (v - (v mod len) + (len - 1) < 0);
      let g = Prng.Splitmix.create seed and g' = Prng.Splitmix.create seed in
      let a = Array.make len 0 and b = Array.make len 0 in
      Prng.Splitmix.add_uniform g a 3;
      for _ = 1 to 3 do
        let u = Prng.Splitmix.int g' len in
        b.(u) <- b.(u) + 1
      done;
      Alcotest.(check (array int)) (Printf.sprintf "length %d: placements" len) b a;
      check_bool (Printf.sprintf "length %d: state" len) true (same_state g g');
      let two = Prng.Splitmix.create seed in
      for _ = 1 to 4 do
        ignore (Prng.Splitmix.next64 two)
      done;
      check_bool (Printf.sprintf "length %d: four draws for three" len) true
        (same_state g two))
    [ 3; 100; 1000; 4095 ]

(* The rejection path of [shuffle]: from a seed whose first draw, with
   bound [len], is rejected, the shuffle makes one extra draw and ends
   as the written-out loop does. *)
(* A slot holds exactly the 32-bit range: its ends round-trip, one past
   either end is refused, never wrapped, and so is a slot index outside
   the buffer.  A length whose byte count would wrap (2^61 slots is 2^63
   bytes, 0 after the shift) is refused before the shift. *)
let test_slots () =
  let a = Prng.Slots.make 3 in
  check_int "length" 3 (Prng.Slots.length a);
  check_int "zeroed" 0 (Prng.Slots.get a 2);
  Prng.Slots.set a 0 0x7fff_ffff;
  Prng.Slots.set a 1 (-0x8000_0000);
  check_int "2^31 - 1" 0x7fff_ffff (Prng.Slots.get a 0);
  check_int "-2^31" (-0x8000_0000) (Prng.Slots.get a 1);
  let value = Invalid_argument "Slots.set: value out of range" in
  List.iter
    (fun v ->
      Alcotest.check_raises (Printf.sprintf "value %d" v) value (fun () -> Prng.Slots.set a 2 v);
      check_int (Printf.sprintf "slot kept after %d" v) 0 (Prng.Slots.get a 2))
    [ 0x8000_0000; -0x8000_0001; 1 lsl 32; max_int; min_int ];
  List.iter
    (fun i ->
      Alcotest.check_raises (Printf.sprintf "set slot %d" i)
        (Invalid_argument "Slots.set: slot out of range") (fun () -> Prng.Slots.set a i 0);
      Alcotest.check_raises (Printf.sprintf "get slot %d" i)
        (Invalid_argument "Slots.get: slot out of range") (fun () -> ignore (Prng.Slots.get a i)))
    [ -1; 3; 1 lsl 61 ];
  List.iter
    (fun k ->
      Alcotest.check_raises (Printf.sprintf "make %d" k) (Invalid_argument "Slots.make: bad length")
        (fun () -> ignore (Prng.Slots.make k)))
    [ -1; 1 lsl 61; max_int ]

let test_shuffle_rejection () =
  List.iter
    (fun len ->
      let seed = rejecting_seed len in
      let g = Prng.Splitmix.create seed and g' = Prng.Splitmix.create seed in
      let a = Array.init len (fun i -> i) in
      let b = Array.copy a in
      Slots.shuffle g a;
      shuffle_by_int g' b;
      Alcotest.(check (array int)) (Printf.sprintf "length %d: permutation" len) b a;
      check_bool (Printf.sprintf "length %d: state" len) true (same_state g g');
      let draws = Prng.Splitmix.create seed in
      for _ = 1 to len do
        ignore (Prng.Splitmix.next64 draws)
      done;
      check_bool (Printf.sprintf "length %d: %d draws for %d swaps" len len (len - 1)) true
        (same_state g draws))
    [ 3; 100; 1000; 4095 ]

(* [knuth_count] against the product loop written out over [float g 1.0]
   on a copied generator: the same count and the same generator state,
   for 1 to 2^12 leaves at the thresholds of the largest (rate 30) and a
   small (rate 0.5) Poisson leaf, and of a tiny one (rate 0.001), where
   almost every leaf stops at its first draw and so drops the second
   draw [knuth_count] mixes ahead. *)
let prop_knuth_count_is_product_loop =
  QCheck.Test.make ~name:"Splitmix.knuth_count = product loop, value and state" ~count:5
    QCheck.int
    (fun seed ->
      let g = Prng.Splitmix.create seed in
      let g' = Prng.Splitmix.copy g in
      List.for_all
        (fun l ->
          List.for_all
            (fun leaves ->
              let k = Prng.Splitmix.knuth_count g ~leaves l in
              let k' = ref 0 in
              for _ = 1 to leaves do
                let p = ref 1.0 in
                let running = ref true in
                while !running do
                  p := !p *. Prng.Splitmix.float g' 1.0;
                  if !p <= l then running := false else incr k'
                done
              done;
              k = !k' && same_state g g')
            [ 0; 1; 2; 3; 4; 8; 16; 32; 64; 128; 256; 512; 1024; 2048; 4096 ])
        [ exp (-30.0); exp (-0.5); exp (-0.001) ])

(* [float] is the top 53 bits of [next64] scaled: a copied generator
   drawing through each gives the same floats, bit for bit. *)
let prop_float_is_next64_scaled =
  QCheck.Test.make ~name:"float g 1.0 = (next64 g lsr 11) / 2^53" ~count:10 QCheck.small_int
    (fun seed ->
      let g = Prng.Splitmix.create seed in
      let g' = Prng.Splitmix.copy g in
      let ok = ref true in
      for _ = 1 to 1000 do
        let a = Prng.Splitmix.float g 1.0 in
        let bits = Int64.shift_right_logical (Prng.Splitmix.next64 g') 11 in
        let b = float_of_int (Int64.to_int bits) /. 9007199254740992.0 in
        if Int64.bits_of_float a <> Int64.bits_of_float b then ok := false
      done;
      !ok)

let () =
  Alcotest.run "prng"
    [
      ( "splitmix",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "copy independent" `Quick test_copy_independent;
          Alcotest.test_case "split diverges" `Quick test_split_diverges;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int rejects bad bound" `Quick test_int_rejects_bad_bound;
          Alcotest.test_case "add_uniform rejection path" `Quick
            test_add_uniform_rejection;
          Alcotest.test_case "shuffle rejection path" `Quick test_shuffle_rejection;
          Alcotest.test_case "slots" `Quick test_slots;
          Alcotest.test_case "int_in range" `Quick test_int_in_range;
          Alcotest.test_case "int uniformity" `Slow test_int_uniformity;
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
          Alcotest.test_case "bernoulli rate" `Slow test_bernoulli_rate;
          Alcotest.test_case "bool rate" `Slow test_bool_rate;
        ] );
      ( "sample",
        [
          Alcotest.test_case "shuffle is permutation" `Quick test_shuffle_is_permutation;
          Alcotest.test_case "permutation valid" `Quick test_permutation_valid;
          Alcotest.test_case "choice singleton" `Quick test_choice_singleton;
          Alcotest.test_case "choice empty" `Quick test_choice_empty;
          Alcotest.test_case "sample without replacement" `Quick
            test_sample_without_replacement;
          Alcotest.test_case "sample full range" `Quick test_sample_full;
          Alcotest.test_case "multinomial conserves" `Quick test_multinomial_conserves;
          Alcotest.test_case "geometric split conserves" `Quick
            test_geometric_split_conserves;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_int_in_range;
          QCheck_alcotest.to_alcotest prop_int_pow2_is_rejection_loop;
          QCheck_alcotest.to_alcotest prop_add_uniform_is_int_loop;
          QCheck_alcotest.to_alcotest prop_shuffle_is_int_loop;
          QCheck_alcotest.to_alcotest prop_knuth_count_is_product_loop;
          QCheck_alcotest.to_alcotest prop_split_conserves;
          QCheck_alcotest.to_alcotest prop_float_is_next64_scaled;
        ] );
    ]
