(** The synchronous balancing engine.

    Executes the paper's model (§1.3): in every step, every node runs
    its balancer's [assign] simultaneously on its current load; tokens
    placed on original ports move to the neighbor, tokens placed on
    self-loop ports stay.  Conservation and non-negative sends are
    enforced on every assignment.  A balancer with a whole-round
    {!Balancer.kernel} runs it instead, once per round, unless the run
    is audited or the record's [assign] was rebuilt; it assigns no
    ports, so {!run} checks the round's token total instead. *)

exception Invariant_violation of string
(** Raised when a balancer breaks conservation or sends a negative
    token count on an original edge, or when a round of {!run} or of
    the sharded engine changes the token total. *)

val node_step :
  balancer:Balancer.t ->
  tracker:Fairness.t option ->
  step:int ->
  node:int ->
  load:int ->
  int array ->
  int
(** [node_step ~balancer ~tracker ~step ~node ~load ports] is one
    node's checked assignment: the only check of a [Balancer.assign]
    result, under every engine that drives [assign] ({!run},
    {!step_into}, the sharded, network and distributed engines).  It
    calls [balancer.assign ~step ~node ~load ~ports] on the caller's
    d⁺-entry buffer [ports], then checks the result and raises
    {!Invariant_violation}, in this order:

    - at the first original port k (k < d) holding p < 0:
      ["NAME: node U step T sends P (< 0) on original port K"];
    - when the d⁺ entries do not sum to [load]:
      ["NAME: node U step T assigned S tokens of load X"].

    A negative self-loop entry is allowed (the NL=✗ balancers).  On
    success it passes the ports to [tracker], when one is given
    ({!Fairness.observe}), and returns the tokens the node keeps: the
    sum of its self-loop entries.  Routing the original ports
    (entries [0 .. d-1], left in [ports]) is the caller's. *)

val check_total : balancer:Balancer.t -> step:int -> expected:int -> int -> unit
(** [check_total ~balancer ~step ~expected total] is the round-total
    check of {!run} and the sharded engine: it raises
    {!Invariant_violation}
    ["NAME: step T changed the token total from EXPECTED to TOTAL"]
    unless [total = expected]. *)

type scan = { mutable disc : int; mutable min : int; mutable total : int }
(** Discrepancy, minimum and token total of the last scanned vector,
    kept in one record that every round reuses. *)

val scan_into : scan -> int array -> unit
(** [scan_into s loads] writes [loads]' discrepancy (max − min),
    minimum and total into [s] in one pass.  [loads] must be
    non-empty. *)

type result = {
  steps_run : int;
  final_loads : int array;
  series : (int * int) array;
  (** (step, discrepancy) samples: step 0, every [sample_every]-th step,
      and the final step. *)
  min_load_seen : int;
  (** Minimum entry of any load vector during the run — negative iff the
      algorithm produced negative load (the NL column of Table 1). *)
  reached_target : int option;
  (** First step at which discrepancy ≤ [stop_at_discrepancy], if that
      option was given and reached. *)
  fairness : Fairness.report option; (** present iff [audit] was set *)
}

val run :
  ?audit:bool ->
  ?sample_every:int ->
  ?hook:(int -> int array -> unit) ->
  ?stop_at_discrepancy:int ->
  graph:Graphs.Graph.t ->
  balancer:Balancer.t ->
  init:int array ->
  steps:int ->
  unit ->
  result
(** [run ~graph ~balancer ~init ~steps ()] executes [steps] synchronous
    rounds from the initial load vector [init].

    - [audit] (default false): track cumulative flows and class
      membership via {!Fairness}; costs a second O(n·d⁺) pass per step.
    - [sample_every] (default 1): discrepancy series granularity.
    - [hook]: called as [hook t loads] after each step [t ≥ 1] with the
      current load vector (not a copy).  A hook may add or remove
      tokens in place, as the fault layer does; the next round's total
      check is then made against the total it leaves, at the cost of
      one more scan of the vector per round, which also gives the next
      round's packing guard (below) the hook's minimum and total.
    - [stop_at_discrepancy]: stop early once the discrepancy is ≤ the
      given value; [result.reached_target] records when.

    Every round's token total is checked against the last one (one add
    per node, folded into the discrepancy scan), so a kernel that drops
    or duplicates a token is caught in the round it does so.  The
    per-node checks come first: a negative original port, then a node
    whose ports do not sum to its load.

    When the balancer's kernel runs, each round picks one of three
    scatter targets from the last scan (of the previous round, or of
    the hook's vector).  If no load is negative and the largest, m, has
    m + d⁺ ≤ 2¹⁶, the kernel's [round_packed16] adds into n 16-bit
    slots: the kernel is round-fair, so no node receives more than
    d⁺·⌈m/d⁺⌉ ≤ m + d⁺ − 1 tokens.  Else, if no load is negative and
    the total is at most {!Acc.max_slot}, its [round_packed] adds into
    n 32-bit slots, none of which can exceed the total.  Either way
    one pass moves the slots back into the load vector in place,
    zeroes them and makes the scan, and both widths use the one 4n-byte
    {!Acc.t}, the 16-bit slots its first 2n bytes.  Any other round,
    and every round without a kernel, scatters into a second n-word
    vector.  Each target is allocated on its first use, so a packed run
    holds one n-word vector (the copy of [init]) plus 4n bytes.  The
    results are bit-identical whichever target a round takes.

    @raise Invalid_argument if the balancer's degree does not match the
    graph or [init] has the wrong length.
    @raise Invariant_violation on a misbehaving balancer. *)

val step_into :
  graph:Graphs.Graph.t ->
  balancer:Balancer.t ->
  step:int ->
  int array ->
  int array ->
  unit
(** [step_into ~graph ~balancer ~step cur next] executes one
    synchronous round from [cur] into the caller's [next], calling the
    balancer with step number [step].  It first zeroes [next] (by a
    plain store loop, {!Loads.zero}), so [next] may hold anything; [cur]
    is not mutated.  This is the round kernel
    {!run} iterates: the same validation (and the same
    {!Invariant_violation} messages), the same [core.assign] profiling
    span and, when probes are enabled, the same per-round probe.  It
    allocates nothing when a kernel runs (a d⁺-sized port buffer
    otherwise), so a caller that keeps a spare vector, as the
    open-system plain stepper does, drives rounds without garbage.  It
    always scatters with the kernel's int [round], never a packed
    one.  It makes no token-total check: that is left to its callers'
    ledgers (the open-system engine's [conserved] balances the final
    total against arrivals, departures and fault losses).  On a
    violation [next] is left partly written.
    @raise Invalid_argument before any balancer state moves if the
    balancer's degree does not match the graph, [cur] or [next] has
    the wrong length, or [next] is [cur] itself.
    @raise Invariant_violation on a misbehaving balancer. *)

val step :
  graph:Graphs.Graph.t -> balancer:Balancer.t -> step:int -> int array -> int array
(** [step ~graph ~balancer ~step loads] is {!step_into} on a fresh
    array, which it returns; [loads] is not mutated, and the caller
    owns both arrays afterwards.  Its only allocation is the returned
    array (plus the port buffer when no kernel runs).
    @raise Invalid_argument if the balancer's degree does not match the
    graph or [loads] has the wrong length.
    @raise Invariant_violation on a misbehaving balancer. *)

val discrepancy_after :
  graph:Graphs.Graph.t -> balancer:Balancer.t -> init:int array -> steps:int -> int
(** Convenience: final discrepancy of an unaudited run. *)
