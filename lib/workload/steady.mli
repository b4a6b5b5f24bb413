(** Steady-state estimators for open-system runs.

    Pure, deterministic statistics over per-round series: warm-up
    detection (MSER), long-run distribution summaries with tail
    percentiles, a divergence detector for over-capacity workloads,
    and time-to-absorb-a-burst.  Percentile semantics match
    {!Harness.Stats} (sort, then linear interpolation at rank
    [p/100·(n−1)]); the module is self-contained, so it needs no
    library above [lib/obs]. *)

type summary = {
  count : int;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  p999 : float;
  max : float;
}

val empty_summary : summary
(** All-zero summary, returned for empty post-warm-up windows. *)

val percentile : float array -> float -> float
(** [percentile sorted p] linearly interpolates the [p]-th percentile
    of an ascending-sorted sample.
    @raise Invalid_argument on an empty sample. *)

val int_percentile : min:int -> max:int -> int array -> float -> float
(** [int_percentile ~min ~max xs p] is [percentile] of the
    ascending-sorted float copy of the (unsorted) integer sample [xs],
    bit for bit, without boxing a float per element.  [min] and [max]
    must be the sample's minimum and maximum.  When max − min < n it
    makes one counting pass (its only allocation is a
    (max − min + 1)-slot array); otherwise it selects the two order
    statistics it needs by radix select, a byte a pass over [xs], into
    one 256-slot histogram, without copying or sorting [xs].
    @raise Invalid_argument on an empty sample. *)

val summarize : float array -> summary
(** Distribution summary of a (not necessarily sorted) sample;
    {!empty_summary} on an empty one. *)

val warmup_cutoff : float array -> int
(** MSER warm-up truncation: the deletion point [d ∈ [0, n/2]]
    minimizing [stddev(x[d:]) / √(n − d)] — the prefix whose removal
    makes the remaining mean maximally stable.  Returns the smallest
    minimizer; [0] when the series has fewer than 8 points. *)

val diverging : float array -> bool
(** True when the series trends up without settling: split the tail
    into four equal windows, require strictly increasing window means
    with total growth exceeding [max(0.25·|m₁|, 4.0)].  Detects the
    linearly growing backlog of an over-capacity arrival rate while
    ignoring bounded noise.  Always false under 8 points. *)

val absorb_time : series:(int * int) array -> at:int -> band:int -> int option
(** [absorb_time ~series ~at ~band] is the number of rounds after
    round [at] (e.g. a flash crowd's injection round) until the series
    value first returns to [band] or below — [Some 0] if already
    within band at [at]; [None] if it never recovers. *)
