(** Sampling utilities built on {!Splitmix}. *)

val choice : Splitmix.t -> 'a array -> 'a
(** Uniform element of a non-empty array.
    @raise Invalid_argument on an empty array. *)

val sample_without_replacement : Splitmix.t -> int -> int -> int array
(** [sample_without_replacement g k n] draws [k] distinct values from
    [0..n-1], in random order.  @raise Invalid_argument if [k > n] or
    [k < 0]. *)

val multinomial_tokens : Splitmix.t -> tokens:int -> bins:int -> int array
(** [multinomial_tokens g ~tokens ~bins] throws [tokens] indivisible
    tokens independently and uniformly into [bins] bins and returns the
    occupancy vector.  Used by the randomized-diffusion baselines. *)

val geometric_split : Splitmix.t -> total:int -> parts:int -> int array
(** [geometric_split g ~total ~parts] returns a uniformly random
    composition of [total] into [parts] non-negative summands (stars and
    bars).  Used to produce adversarial-ish random initial loads. *)
