(* SplitMix64, after Steele, Lea & Flood, "Fast splittable pseudorandom
   number generators" (OOPSLA 2014).  The golden-gamma constant and the
   two finalizers are the reference ones.

   The 64-bit state lives unboxed in an 8-byte buffer: reading and
   writing it with [Bytes.get_int64_ne]/[set_int64_ne] compiles to plain
   loads and stores, and with [mix64]/[advance] inlined the arithmetic
   stays in registers, so [int], [bool] and the 53-bit draw inside
   [float] allocate nothing. *)

type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let g = Bytes.create 8 in
  Bytes.set_int64_ne g 0 s;
  g

(* Step the state by the golden gamma and return the mixed output. *)
let[@inline] advance g =
  let s = Int64.add (Bytes.get_int64_ne g 0) golden_gamma in
  Bytes.set_int64_ne g 0 s;
  mix64 s

let create seed = of_state (mix64 (Int64.of_int seed))
let copy = Bytes.copy
let next64 g = advance g
let split g = of_state (mix64 (advance g))

let int g bound =
  if bound <= 0 then invalid_arg "Splitmix.int: bound must be positive";
  if bound land (bound - 1) = 0 then
    (* A power-of-two bound keeps the rejection loop's first draw.  For
       the top 62 bits v < 2^62 and x = v mod bound = v land (bound - 1),
       v - x is a multiple of bound below 2^62, so v - x + bound - 1 <=
       2^62 - 1 = max_int: the rejection test below could never fire,
       and the stream advances exactly once either way. *)
    Int64.to_int (Int64.shift_right_logical (advance g) 2) land (bound - 1)
  else begin
    (* Rejection sampling on the top 62 bits to avoid modulo bias. *)
    let mask = 0x3FFF_FFFF_FFFF_FFFF in
    let r = ref (-1) in
    while !r < 0 do
      let v = Int64.to_int (Int64.shift_right_logical (advance g) 2) land mask in
      let x = v mod bound in
      if v - x + (bound - 1) >= 0 then r := x
    done;
    !r
  end

(* The batched draws below hold the state in a local across the whole
   batch and store it back once.  [advance] and [mix64] inline only
   inside this module under dune's [-opaque] dev profile, so a caller
   in another module looping over [int] or [float] pays a call and a
   state load and store per draw. *)

let add_uniform g a c =
  let bound = Array.length a in
  if c > 0 then begin
    if bound <= 0 then invalid_arg "Splitmix.add_uniform: empty array";
    let s = ref (Bytes.get_int64_ne g 0) in
    if bound land (bound - 1) = 0 then
      for _ = 1 to c do
        s := Int64.add !s golden_gamma;
        let u = Int64.to_int (Int64.shift_right_logical (mix64 !s) 2) land (bound - 1) in
        a.(u) <- a.(u) + 1
      done
    else begin
      let mask = 0x3FFF_FFFF_FFFF_FFFF in
      for _ = 1 to c do
        let r = ref (-1) in
        while !r < 0 do
          s := Int64.add !s golden_gamma;
          let v = Int64.to_int (Int64.shift_right_logical (mix64 !s) 2) land mask in
          let x = v mod bound in
          if v - x + (bound - 1) >= 0 then r := x
        done;
        a.(!r) <- a.(!r) + 1
      done
    end;
    Bytes.set_int64_ne g 0 !s
  end

(* Monomorphic on purpose: over a generic array every read would test
   for a float array and every write go through [caml_modify]. *)
let shuffle g (a : int array) =
  let s = ref (Bytes.get_int64_ne g 0) in
  let mask = 0x3FFF_FFFF_FFFF_FFFF in
  for i = Array.length a - 1 downto 1 do
    let bound = i + 1 in
    let j =
      if bound land (bound - 1) = 0 then begin
        s := Int64.add !s golden_gamma;
        Int64.to_int (Int64.shift_right_logical (mix64 !s) 2) land (bound - 1)
      end
      else begin
        let r = ref (-1) in
        while !r < 0 do
          s := Int64.add !s golden_gamma;
          let v = Int64.to_int (Int64.shift_right_logical (mix64 !s) 2) land mask in
          let x = v mod bound in
          if v - x + (bound - 1) >= 0 then r := x
        done;
        !r
      end
    in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Bytes.set_int64_ne g 0 !s

let fill_permutation g a =
  for i = 0 to Array.length a - 1 do
    a.(i) <- i
  done;
  shuffle g a

let knuth_count g ~leaves l =
  let s = ref (Bytes.get_int64_ne g 0) in
  let k = ref 0 in
  for _ = 1 to leaves do
    let p = ref 1.0 in
    let running = ref true in
    while !running do
      s := Int64.add !s golden_gamma;
      (* 2⁻⁵³ is a power of two, so this product is [float]'s division. *)
      let bits = Int64.to_int (Int64.shift_right_logical (mix64 !s) 11) in
      p := !p *. (float_of_int bits *. 0x1p-53);
      if !p <= l then running := false else incr k
    done
  done;
  Bytes.set_int64_ne g 0 !s;
  !k

let int_in g lo hi =
  if hi < lo then invalid_arg "Splitmix.int_in: empty range";
  lo + int g (hi - lo + 1)

let bool g = Int64.logand (advance g) 1L = 1L

let[@inline] bits53 g = Int64.to_int (Int64.shift_right_logical (advance g) 11)

let[@inline] float g bound =
  (* 53 uniform bits mapped into [0, 1). *)
  let u = float_of_int (bits53 g) /. 9007199254740992.0 in
  u *. bound

let bernoulli g p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float g 1.0 < p
