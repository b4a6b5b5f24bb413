(** The balancer interface: what a load-balancing algorithm is.

    A balancer controls one d-regular graph node per call.  In step [t],
    a node [u] holding [load] tokens must place every token on one of
    its [d⁺ = d + self_loops] ports:

    - ports [0 .. d-1] are [u]'s original edges, in the graph's port
      order — tokens placed there move to the corresponding neighbor;
    - ports [d .. d⁺-1] are [u]'s self-loops — tokens placed there stay.

    The engine calls [assign] once per node per step; the balancer
    writes token counts into the provided [ports] buffer (length d⁺).
    Invariants enforced by the engine:

    - conservation: the entries sum to [load];
    - original entries (ports [0 .. d-1]) are non-negative.

    Self-loop entries may be negative only for algorithms that, like the
    continuous-mimicking scheme of Akbari et al. [4], deliberately incur
    negative load (the NL=✗ rows of Table 1). *)

type properties = {
  deterministic : bool;  (** D column of Table 1 *)
  stateless : bool;      (** SL column: assignment depends only on the current load *)
  never_negative : bool; (** NL column: cannot produce negative loads *)
  no_communication : bool; (** NC column: needs no info beyond its own load *)
}

type persistence = {
  state_save : unit -> int array;
  (** Snapshot the balancer's mutable state as a per-node int array
      (entry [u] is node [u]'s state).  Used by checkpointing and by the
      sharded engine, which merges per-shard snapshots by node owner. *)
  state_restore : int array -> unit;
  (** Overwrite the balancer's state with a previously saved snapshot.
      @raise Invalid_argument on a length mismatch. *)
  state_bound : int;
  (** Every entry of a saved state lies in [\[0, state_bound)]; the
      fault and network watchdogs flag any state outside it. *)
}

type assign = step:int -> node:int -> load:int -> ports:int array -> unit

type kernel = {
  reproduces : assign;
  (** The [assign] closure this kernel stands in for.  {!Engine} runs
      the kernel only while this is physically the record's [assign]. *)
  round : step:int -> adj:int array -> int array -> int array -> int;
  (** [round ~step ~adj cur next] runs one whole synchronous round:
      for every node [u] in increasing order it does what
      [assign ~step ~node:u ~load:cur.(u)] would do — the same state
      updates and the same exceptions, at the same node — and adds the
      resulting sends to [next.(adj.(u·d + k))] and the kept tokens to
      [next.(u)].  [next] holds zeros on entry.  Returns the tokens sent
      over original ports.  Raises [Invalid_argument] before any state
      changes when [cur] or [adj] does not have the shape of the graph
      the balancer was made for.  A kernel may keep hints across calls
      that choose only how a round is computed, never what it computes:
      {!Rotor_router}'s picks each round, from the last round's count of
      empty nodes, a loop that skips them or one that runs them through
      with zero sends. *)
  round_packed : step:int -> adj:int array -> int array -> Acc.t -> int;
  (** [round_packed ~step ~adj cur acc] is [round] with [acc] as the
      scatter target: a zeroed {!Acc} accumulator with one 32-bit slot
      per node of [cur], where [adj] is that graph's adjacency (slots
      are written unchecked).  The state updates, exceptions and return
      value are [round]'s, and so is the shape check, which here also
      raises [Invalid_argument], before any state changes, when [acc]
      has fewer 32-bit slots than [cur] has nodes.  Besides where it
      adds, it may differ from [round] only in how it computes the
      round, as {!Rotor_router}'s does by skipping empty nodes in every
      round.
      {!Engine.run} calls it only in a round where no load of [cur] is
      negative and their total is at most {!Acc.max_slot}, so no slot
      can overflow, and drains [acc] back to zeros after it.
      {!Engine.step_into}, and so {!Engine.step}, never calls it. *)
  round_packed16 : step:int -> adj:int array -> int array -> Acc.t -> int;
  (** [round_packed16] is [round_packed] adding into [acc]'s 16-bit
      slots instead (its first 2n bytes, zeroed), and its shape check
      refuses an [acc] with fewer 16-bit slots than [cur] has nodes.
      A sum past {!Acc.max_slot16} wraps.  {!Engine.run} calls it only
      in a round where no load of [cur] is negative and the largest,
      m, has m + d⁺ ≤ 2¹⁶: with every port sent at most ⌈m/d⁺⌉ tokens
      (below), no node then receives more than
      d⁺·⌈m/d⁺⌉ ≤ m + d⁺ − 1 ≤ {!Acc.max_slot16}. *)
}
(** A whole-round kernel: one call per round instead of one [assign]
    call per node and a d⁺-entry ports buffer.

    Only a balancer's own constructor may set one ({!Rotor_router.make}
    does, for its default order), and the loads and state it leaves must
    match [assign] bit for bit; the kernel writes no ports, so it is
    trusted to route what [assign] would have assigned.  Its balancer
    must be round-fair (Definition 3.1): a node holding x ≥ 0 sends at
    most ⌈x/d⁺⌉ tokens on each port, self-loops included, which is
    what makes [round_packed16]'s slots wide enough.  A kernel that
    breaks this overflows a 16-bit slot, and the wrapped slot changes
    the round's token total, which {!Engine.run} checks.  {!Engine}
    ignores the kernel, and drives [assign] node by node, when the run
    is audited ([Fairness] needs every node's ports) and whenever the
    record was rebuilt with another [assign] — as {!Tap.wrap} and the
    fault layer's outage wrapper do with [{ b with assign = … }] — since
    [reproduces] then no longer is [assign].  A wrapper therefore
    cannot be bypassed by mistake. *)

type t = {
  name : string;
  degree : int;       (** d: original edges per node *)
  self_loops : int;   (** d°: self-loops per node in G⁺ *)
  props : properties;
  assign : assign;
  persist : persistence option;
  (** Checkpoint capability.  [None] for balancers whose state cannot be
      captured as a per-node int vector (or that have none — stateless
      balancers need no persistence to be resumable). *)
  kernel : kernel option;
  (** Optional whole-round fast path; [None] for every balancer but the
      default-order rotor-router. *)
}

val d_plus : t -> int
(** d⁺ = degree + self_loops. *)

val resumable : t -> bool
(** A balancer can be checkpoint-resumed iff it is stateless (nothing to
    save) or provides a {!persistence} capability. *)

val per_node_persistence : bound:int -> int array -> persistence option
(** [per_node_persistence ~bound arr] is the standard capability for a
    balancer whose whole mutable state is the per-node int array [arr],
    every entry in [\[0, bound)] (e.g. a rotor position per node, with
    [bound] the number of rotor positions, also recorded as
    [state_bound]): save copies it, restore blits into it.  Restore
    raises [Invalid_argument] on a length mismatch or an entry outside
    [\[0, bound)], before it changes anything — so a corrupt checkpoint or snapshot is refused up front
    instead of failing mid-run with an index error. *)

val paper_deterministic : properties
(** D ✓, SL ✗, NL ✓, NC ✓ — rotor-router-style. *)

val paper_stateless : properties
(** D ✓, SL ✓, NL ✓, NC ✓ — SEND-style. *)

val validate_assignment :
  t -> load:int -> ports:int array -> (unit, string) Result.t
(** The engine's invariant check, exposed for tests: conservation and
    non-negative original ports. *)
