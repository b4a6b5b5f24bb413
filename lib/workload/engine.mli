(** The open-system driver: arrivals → departures → one balancing step
    per round, with streaming steady-state accounting.

    The balancing step itself is abstracted as a {!stepper} closure so
    this module does not depend on [lib/core]: {!Harness.Openrun}
    supplies steppers that route the step through the plain engine,
    the fault engine or the lossy asynchronous network.  A stepper reports any token mass the step
    itself injected or lost (fault ledgers), so the conservation
    identity is checked exactly even under crashes and load shocks. *)

type step_result = {
  loads : int array;  (** the load vector after the balancing step *)
  injected : int;  (** tokens the step added (e.g. fault load shocks) *)
  lost : int;  (** tokens the step destroyed (e.g. crash token loss) *)
}

type stepper = round:int -> int array -> step_result
(** One synchronous balancing step over the given loads ([round] is
    1-based).  Ownership passes both ways.  The array handed in becomes
    the stepper's: it may reuse it once the call has returned, say as a
    later round's scatter target.  {!run} never reads an array after
    handing it over, and it copies [init] rather than hand that over.
    The returned [loads] becomes {!run}'s: the stepper must not touch
    it again until it is handed back. *)

type warmup =
  | Auto  (** MSER cutoff estimated from the discrepancy series *)
  | Fixed_warmup of int  (** discard exactly this many leading rounds *)

type config

val config :
  ?warmup:warmup ->
  ?probe_label:string ->
  arrival:Arrival.t ->
  lifetime:Lifetime.t ->
  rounds:int ->
  unit ->
  config
(** [warmup] defaults to [Auto]; [probe_label] (default ["workload"])
    tags this run's [lb_workload_*] metrics when probes are enabled.
    @raise Invalid_argument on negative [rounds]. *)

type result = {
  rounds_run : int;
  final_loads : int array;
  discrepancy_series : (int * int) array;  (** (round, max − min) *)
  inflight_series : (int * int) array;  (** (round, total tokens) *)
  overload_series : (int * float) array;
      (** (round, p99 node load ÷ mean node load); 0 when empty *)
  total_arrivals : int;
  total_departures : int;
  fault_injected : int;  (** summed from the stepper's ledger *)
  fault_lost : int;
  conserved : bool;
      (** final total = init + arrivals + fault_injected − departures −
          fault_lost *)
  warmup_end : int;  (** rounds discarded before the steady window *)
  steady_discrepancy : Steady.summary;
  steady_inflight : Steady.summary;
  steady_overload : Steady.summary;
  throughput : float;  (** completed tokens per round over the run *)
  diverged : bool;
      (** the in-flight backlog trends up without settling — the
          over-capacity signature ({!Steady.diverging} on the
          post-warm-up backlog) *)
}

val run : config -> init:int array -> stepper -> result
(** Run the open system for [rounds] rounds from the initial load
    vector.  Each round: {!Arrival.inject}, {!Lifetime.depart}, then
    the stepper; the three series record the post-step state.  Probes
    ({!Obs.Probe.on_workload}) only observe — probes-on runs are
    bit-identical to probes-off.
    @raise Invalid_argument when the arrival process fails
    {!Arrival.validate} against the network size. *)
