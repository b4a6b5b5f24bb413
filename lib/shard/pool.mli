(** A pool of long-lived OCaml 5 domains with barrier-style dispatch.

    One abstraction serves both parallelism levels in this repository:

    - {e replica-level}: independent tasks (one experiment per seed)
      pulled off a shared queue with {!map};
    - {e shard-level}: SPMD steps where every worker must run one phase
      and all must finish before the next phase starts — {!run} is a
      dispatch {e and} a barrier, which is exactly the per-step
      synchronization the sharded engine needs.

    Workers block on a condition variable between dispatches, so a pool
    can drive millions of fine-grained phases without respawning
    domains.  [run]/[map] must only be called from the thread that
    created the pool. *)

type t

val create : domains:int -> t
(** Spawn [domains] worker domains (≥ 1). *)

val size : t -> int

val run : t -> (int -> unit) -> unit
(** [run pool job] executes [job w] on every worker [w] in
    [0 .. size-1] simultaneously and returns when {e all} have finished
    (a full barrier, with the mutex acquire/release providing the
    happens-before edge that makes each worker's writes visible to every
    participant of the next phase).  If any job raised, the exception of
    the lowest-indexed failing worker is re-raised here — after the
    barrier, so the pool stays usable. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** Task-parallel map: workers pull items off an atomic cursor.  Order
    of results matches the input.  Exceptions propagate like {!run}
    (items after a failure on the same worker are skipped). *)

val shutdown : t -> unit
(** Stop and join all workers.  Idempotent. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] runs [f] over a fresh pool and always shuts
    it down, even if [f] raises. *)
