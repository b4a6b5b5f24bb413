(** Load vectors and the metrics the paper states its results in. *)

val total : int array -> int
val zero : int array -> unit
(** [zero a] sets every entry of [a] to 0 by a plain store loop: the
    way every scatter buffer that is kept across rounds is cleared
    ({!Engine}, [Shard_engine], [Iengine]).  [Array.fill] is slower on
    a major-heap array holding live loads (DESIGN.md §12.1). *)

val max_load : int array -> int
val min_load : int array -> int

val discrepancy : int array -> int
(** max load − min load (the paper's central quantity). *)

val average : int array -> float

val balancedness : int array -> float
(** max load − average load (the paper's "balancedness" gap). *)

val initial_discrepancy : int array -> int
(** Alias of {!discrepancy}; the paper's K when applied to x₁. *)

(** {1 Initial distributions} *)

val point_mass : n:int -> total:int -> int array
(** All [total] tokens on node 0. *)

val uniform_random : Prng.Splitmix.t -> n:int -> total:int -> int array
(** Tokens thrown independently and uniformly at nodes. *)

val bimodal : n:int -> high:int -> low:int -> int array
(** First half of the nodes get [high], second half [low] (odd [n]: the
    middle node gets [low]). *)

val random_composition : Prng.Splitmix.t -> n:int -> total:int -> int array
(** Uniformly random composition of [total] over the [n] nodes —
    heavier-tailed than {!uniform_random}. *)

val flat : n:int -> value:int -> int array

val staircase : n:int -> step:int -> int array
(** Node i gets i·step tokens — the graded profile the Theorem 4.1
    adversary sustains. *)

val exponential_decay : n:int -> top:int -> int array
(** Node i gets max(top / 2^i, 0) tokens — a heavy-head profile. *)
