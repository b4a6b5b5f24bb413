(** The ROTOR-ROUTER (Propp machine) balancer.

    Every node owns a rotor over a cyclic ordering of its d⁺ ports
    (original edges and self-loops).  With load x, the node sends one
    token along the port under the rotor, advances the rotor, and
    repeats — so every port receives ⌊x/d⁺⌋ tokens and the x mod d⁺
    ports starting at the rotor receive one extra; the rotor ends up
    advanced by x mod d⁺ positions.

    The paper shows (Observation 2.2) that this is cumulatively 1-fair
    whenever the cyclic order visits the original edges "spread out";
    with the default order — original edges and self-loops interleaved
    as evenly as possible — the audited δ is 1 for d° ≥ d.  Theorem 4.3
    uses the d° = 0 instance with an adversarial initial rotor
    configuration, which {!make} supports via [init_rotor] and
    [order]. *)

val make :
  ?order:(int -> int array) ->
  ?init_rotor:(int -> int) ->
  Graphs.Graph.t ->
  self_loops:int ->
  Balancer.t
(** [make g ~self_loops] builds a rotor-router balancer for [g] with
    [self_loops] self-loop ports per node.

    - [order u] must be a permutation of [0 .. d⁺-1] giving node [u]'s
      cyclic port order (default: original edges and self-loops
      interleaved round-robin).
    - [init_rotor u] is the starting rotor position of node [u] as an
      index into that order (default 0).

    Every order is held twice over, so that one assignment reads its
    extra ports as one contiguous slice.  The default order is one
    table of 2·d⁺ ints shared by all nodes; custom orders cost 2·d⁺
    ints per node.  The persisted state is the rotor vector, each entry
    in [\[0, d⁺)]; restoring anything else raises [Invalid_argument].

    With the default order (any [init_rotor]) the balancer also carries
    a whole-round {!Balancer.kernel} that updates the same rotor vector;
    {!Engine} runs it in place of [assign] except in audited runs and
    under wrappers that rebuild [assign].  The ports that get the extra
    token depend only on the rotor r and the excess e, so the kernel
    reads them from a d⁺×d⁺ table built once by [make]: entry (r, e)
    is the bitmask of the original ports in the window [\[r, r + e)]
    and their count.  Per node it makes one lookup, sends
    q + (bit k) on original port k, and keeps x − (q·d + count).
    Its [round], [round_packed] and [round_packed16] are {!Rotor_loop}'s
    three expansions of one template, with their adds into an int
    vector, into {!Acc}'s 32-bit slots, and into its 16-bit slots as
    plain ints.  The packed two skip empty nodes.  [round], which
    {!Engine.step_into} runs, picks one of two loops each round from
    the last round's count e of empty nodes: one runs them through the
    node's body with zero sends, when d·e ≤ 5·min(e, n − e) and a skip
    would mostly mispredict; the other skips them, a first round
    included.  The choice changes no load, rotor or exception.  The
    kernel is round-fair: every
    port gets ⌊x/d⁺⌋ or ⌈x/d⁺⌉ tokens.  Each variant checks
    the shapes once per round, before any rotor moves, and raises
    [Invalid_argument] when the loads are not one per node of [g], the
    adjacency is not n·d long, or a packed variant's accumulator has
    fewer than n slots of its width; past that check, the loop's reads
    of the loads, the rotors and the adjacency are unchecked.  The
    kernel exists only for d ≤ 31 and d⁺ ≤ 64, so the table holds at
    most 4096 ints; a wider shape, like a custom
    [order], whose tables would cost n·d⁺² more ints, gets no kernel
    and keeps the generic path.

    @raise Invalid_argument if an order is not a permutation or an
    initial rotor position is out of range. *)

val default_order : degree:int -> self_loops:int -> int array
(** The interleaved default order, exposed for tests. *)
