(** Spectral analysis of the balancing graph G⁺.

    The paper analyses the random walk with transition matrix
    P(u,v) = mult(u,v)/d⁺ for u ≠ v and P(u,u) = d°/d⁺, where
    d⁺ = d + d° and d° is the number of self-loops per node.  Everything
    the bounds need — the eigenvalue gap µ = 1 − λ₂ and the balancing
    horizon T = O(log(Kn)/µ) — is computed here. *)

val transition_matrix : Graph.t -> self_loops:int -> Linalg.Csr.t
(** Transition matrix of G⁺ = G plus [self_loops] self-loops per node.
    Doubly stochastic and symmetric for regular G.
    @raise Invalid_argument if [self_loops < 0]. *)

val eigenvalue_gap : ?max_iter:int -> ?tol:float -> Graph.t -> self_loops:int -> float
(** µ = 1 − |λ₂| of the transition matrix, estimated numerically;
    always in (0, 1]. *)

(** The closed forms below give µ = 1 − max |λ| over the non-trivial
    eigenvalues λ = (a + d°)/d⁺ of the walk, a ranging over the
    adjacency spectrum: the largest a or, with few self-loops, the
    most negative one sets it (for d° ≥ d every λ is non-negative and
    the largest wins).  Like {!eigenvalue_gap}, each is in (0, 1].
    They cross-check the numerical estimator and price horizons
    without running power iteration. *)

val cycle_gap : n:int -> self_loops:int -> float
(** The cycle C_n: a = 2 cos(2πk/n), largest at k = 1, smallest at
    k = ⌊n/2⌋. *)

val hypercube_gap : r:int -> self_loops:int -> float
(** The r-cube: a = r − 2k, largest r − 2, smallest −r. *)

val complete_gap : n:int -> self_loops:int -> float
(** K_n: every non-trivial a is −1. *)

val torus2d_gap : side:int -> self_loops:int -> float
(** The side×side torus (degree 4): a = 2 cos(2πj/side) + 2 cos(2πk/side),
    largest 2 + 2 cos(2π/side), smallest 4 cos(2π⌊side/2⌋/side). *)

val circulant_gap : n:int -> offsets:int list -> self_loops:int -> float
(** Circulant graphs: eigenvalues of the adjacency are
    Σ_o (2 − [2o = n]) cos(2πko/n) over k, all n − 1 non-trivial ones
    examined.  Generalizes {!cycle_gap}; O(n · |offsets|). *)

val horizon : gap:float -> n:int -> initial_discrepancy:int -> c:float -> int
(** [horizon ~gap ~n ~initial_discrepancy ~c] is
    ⌈c · ln(n·(K+2)) / µ⌉ — the paper's T = O(log(Kn)/µ) with an
    explicit constant [c].  Always at least 1. *)

val continuous_balancing_time :
  Graph.t -> self_loops:int -> init:float array -> ?tolerance:float ->
  ?max_steps:int -> unit -> int option
(** Empirical alternative to {!horizon}: iterate the continuous
    diffusion x ← Px from [init] and return the first step at which the
    continuous discrepancy drops below [tolerance] (default 1.0), or
    [None] if [max_steps] (default 10_000_000) is hit first.  This is
    exactly "the time in which a continuous algorithm balances the
    system load" that the paper's T tracks. *)
