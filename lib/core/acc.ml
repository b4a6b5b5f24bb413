type t = Bytes.t

external get : t -> int -> int32 = "%caml_bytes_get32u"
external set : t -> int -> int32 -> unit = "%caml_bytes_set32u"
external get16 : t -> int -> int = "%caml_bytes_get16u"
external set16 : t -> int -> int -> unit = "%caml_bytes_set16u"

let max_slot = 0x7fff_ffff
let max_slot16 = 0xffff
let create n = Bytes.make (n lsl 2) '\000'
let length a = Bytes.length a lsr 2
let length16 a = Bytes.length a lsr 1
