(** Recovery sweep: how fast does each scheme re-balance after faults?

    One sweep point runs a (graph, algorithm, fault scenario) triple
    through {!Faults.Engine.run} and keeps the slowest episode.  The
    recovery tolerance is the Theorem 2.3 discrepancy band
    d·min{{√(log n/µ)}, √n} — a scheme "recovers" when the post-fault
    discrepancy is back within that band of its pre-fault value, which
    is exactly the self-stabilization the paper's stateless (SL) schemes
    get for free and stateful schemes must re-earn after state loss. *)

type point = {
  graph : string;
  algo : string;
  scenario : string;
  eps : int;  (** Theorem 2.3 band used as the recovery tolerance *)
  pre : int;  (** discrepancy just before the (slowest) fault episode *)
  shock : int;  (** discrepancy just after it *)
  worst : int;  (** worst discrepancy until recovery *)
  recovery : int option;  (** steps to recover, slowest episode; None = never *)
  episodes : int;  (** fault episodes observed; 0 ⇒ recovery is n/a *)
  conserved : bool;  (** final total matched the fault ledger *)
}

val sweep : ?mode:Faults.Engine.mode -> quick:bool -> unit -> point list
(** Crash (wipe+lose), crash (keep+spill), load-shock and edge-outage
    scenarios across cycle/torus/hypercube for the stateful
    rotor-router vs the stateless send-floor.  [quick] shrinks the
    graphs to smoke-test size. *)

val print_table : point list -> unit

val to_rows : point list -> string list list
(** CSV-shaped rows, one per point, in sweep order. *)
