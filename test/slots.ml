(* Int arrays to and from the 32-bit slot buffers ([Prng.Slots]) that
   [Prng.Splitmix.shuffle] and [fill_permutation] work over. *)

let of_ints a =
  let b = Prng.Slots.make (Array.length a) in
  Array.iteri (Prng.Slots.set b) a;
  b

let to_ints b = Array.init (Prng.Slots.length b) (Prng.Slots.get b)

(* [shuffle g a] is [Prng.Splitmix.shuffle] over the values of [a]. *)
let shuffle g a =
  let b = of_ints a in
  Prng.Splitmix.shuffle g b;
  Array.blit (to_ints b) 0 a 0 (Array.length a)

(* [permutation g k] is [Prng.Splitmix.fill_permutation]'s permutation
   of [0 .. k-1]. *)
let permutation g k =
  let b = Prng.Slots.make k in
  Prng.Splitmix.fill_permutation g b;
  to_ints b
