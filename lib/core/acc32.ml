type t = Bytes.t

external get : t -> int -> int32 = "%caml_bytes_get32u"
external set : t -> int -> int32 -> unit = "%caml_bytes_set32u"

let max_slot = 0x7fff_ffff
let create n = Bytes.make (n lsl 2) '\000'
let length a = Bytes.length a lsr 2
