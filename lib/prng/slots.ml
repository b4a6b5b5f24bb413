type t = Bytes.t

external unsafe_get : t -> int -> int32 = "%caml_bytes_get32u"
external unsafe_set : t -> int -> int32 -> unit = "%caml_bytes_set32u"

let make k =
  if k < 0 || k > Sys.max_string_length / 4 then invalid_arg "Slots.make: bad length";
  Bytes.make (k lsl 2) '\000'

let length a = Bytes.length a lsr 2

let get a i =
  if i < 0 || i >= length a then invalid_arg "Slots.get: slot out of range";
  Int32.to_int (unsafe_get a (i lsl 2))

let set a i v =
  if i < 0 || i >= length a then invalid_arg "Slots.set: slot out of range";
  if v < -0x8000_0000 || v > 0x7fff_ffff then invalid_arg "Slots.set: value out of range";
  unsafe_set a (i lsl 2) (Int32.of_int v)
