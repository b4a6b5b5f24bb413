(** The rotor-router kernel's round, generated from the one template
    rotor_loop.ml.in once per scatter target of {!Balancer.kernel}
    (see {!Rotor_router} for the kernel, DESIGN.md §12.1 for the
    loop's shape).

    [round ~d ~dp ~win ~rotor] is a kernel round for the default-order
    rotor-router on a graph of degree [d], with d⁺ = [dp] ports a node,
    window table [win] (entry r·d⁺ + e: the bitmask of the original
    ports in the window [\[r, r + e)] and, from bit 32, their count)
    and rotors [rotor], which each round advances.  A round adds every
    node's sends and kept tokens into its target and returns the tokens
    sent over original ports.  It raises [Invalid_argument] before any
    rotor moves when the loads and [rotor] are not one entry per node,
    the adjacency is not n·d long, or a packed target has fewer than n
    slots; past that check its reads of the loads, [rotor] and the
    adjacency are unchecked.  A negative load raises [Invalid_argument]
    at its node, before that node's rotor moves. *)

(** Into an int vector.  [empties], the last round's count of empty
    nodes (start it at n), picks each round's loop and receives the
    round's count. *)
module Into_int : sig
  val round :
    d:int -> dp:int -> win:int array -> rotor:int array -> empties:int ref ->
    step:int -> adj:int array -> int array -> int array -> int
end

(** Into {!Acc}'s 32-bit slots. *)
module Into32 : sig
  val round :
    d:int -> dp:int -> win:int array -> rotor:int array ->
    step:int -> adj:int array -> int array -> Acc.t -> int
end

(** Into {!Acc}'s 16-bit slots, as plain int adds. *)
module Into16 : sig
  val round :
    d:int -> dp:int -> win:int array -> rotor:int array ->
    step:int -> adj:int array -> int array -> Acc.t -> int
end
