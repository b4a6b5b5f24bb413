(** Reproducible fault plans.

    A fault plan is a step-sorted list of concrete fault events — node
    crashes, transient edge outages, load shocks — produced
    deterministically from a compact {!spec} list, a graph and a single
    {!Prng.Splitmix} seed.  Equal (seed, graph, specs) always realize
    the same plan, so every fault-injected run is replayable bit for bit
    (the property the SL column of the paper's Table 1 makes
    interesting: stateless balancers self-stabilize from any perturbed
    configuration, stateful ones must also recover their state).

    Timing convention: an event scheduled at step [t] is applied to the
    configuration {e before} the balancing pass of step [t] runs, i.e.
    between steps [t-1] and [t].  Valid steps are [1 .. horizon]. *)

type state_loss =
  | Wipe_state  (** balancer per-node state at the node is reset to 0 *)
  | Keep_state  (** balancer state survives the crash (warm restart) *)

type token_policy =
  | Lose_tokens  (** the node's tokens vanish (tracked in the ledger) *)
  | Spill_tokens
      (** the node's tokens are redistributed to its neighbors, as
          evenly as the integers allow (ports in order get the
          remainder) — total mass is conserved *)

type event =
  | Crash of { node : int; state : state_loss; tokens : token_policy }
  | Edge_outage of { node : int; port : int; last_step : int }
      (** the directed port [(node, port)] is down through [last_step]
          inclusive: tokens assigned to it stay at [node].  {!realize}
          always emits outages symmetrically (both orientations of an
          undirected edge go down together). *)
  | Load_shock of { node : int; amount : int }
      (** [amount] extra tokens materialize at [node] (an adversarial
          burst, the fault-shaped cousin of {!Workload.Arrival}
          batches) *)

type timed = { step : int; event : event }

type plan = timed list  (** sorted by [step], ascending *)

type spec =
  | Crash_fraction of {
      fraction : float;  (** of all nodes, sampled without replacement *)
      step : int;
      state : state_loss;
      tokens : token_policy;
    }
  | Edge_outage_rate of {
      rate : float;  (** each undirected edge goes down independently *)
      step : int;
      duration : int;  (** steps the outage lasts, >= 1 *)
    }
  | Shock of {
      node : int option;  (** [None]: a seeded-random node *)
      amount : int;
      step : int;
    }

val realize : seed:int -> graph:Graphs.Graph.t -> spec list -> plan
(** Expand specs into concrete events using one SplitMix64 stream.
    Specs are consumed in list order; the resulting plan is sorted by
    step (stable).  @raise Invalid_argument on malformed specs
    (fractions/rates outside [0, 1], steps < 1, negative amounts or
    durations, out-of-range nodes). *)

val parse : string -> (spec list, string) result
(** Parse the CLI plan syntax: [;]-separated items of the form
    - [crash:FRAC\@STEP[:wipe|keep][:lose|spill]] (defaults wipe, lose)
    - [outage:RATE\@STEP+DURATION]
    - [shock:AMOUNT\@STEP[:node=N]] (default: seeded-random node)

    e.g. ["crash:0.1\@500:keep:spill;outage:0.05\@200+50;shock:1000\@800"]. *)

val spec_to_string : spec -> string
(** Round-trips through {!parse}. *)

val event_to_string : event -> string
(** Human description, used by recovery reports and CLI logging. *)

val events_at : plan -> step:int -> event list
val last_step : plan -> int
(** Largest scheduled step, 0 for the empty plan (outage durations
    count: an outage lasting through step 90 reports at least 90). *)
