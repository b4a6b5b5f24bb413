(** Generators for the d-regular graph families used in the paper's
    statements and experiments.

    Every generator fills the graph's edge list of 32-bit slots in
    place and hands it to {!Graph.of_ends}; none builds another.  The
    edge order, and so every port number, is pinned by digest goldens.
    @raise Invalid_argument ["Graph.of_edges: endpoint out of range"]
    from any generator asked for more than 2³¹ nodes. *)

val cycle : int -> Graph.t
(** [cycle n] is the n-cycle (2-regular).  [n >= 3]. *)

val complete : int -> Graph.t
(** [complete n] is K_n ((n-1)-regular).  [n >= 2]. *)

val complete_bipartite : int -> Graph.t
(** [complete_bipartite m] is K_{m,m} (m-regular, bipartite) on [2m]
    nodes.  [m >= 1]. *)

val hypercube : int -> Graph.t
(** [hypercube r] is the r-dimensional hypercube on [2^r] nodes
    (r-regular).  [r >= 1]. *)

val torus : int list -> Graph.t
(** [torus sides] is the multidimensional torus with the given side
    lengths (each [>= 3]); degree is [2 * List.length sides].
    [torus [n]] differs from [cycle n] only in port numbering. *)

val circulant : int -> int list -> Graph.t
(** [circulant n offsets] connects [i] to [i ± o mod n] for each offset.
    Offsets must be distinct, in [1 .. n/2].  An offset equal to [n/2]
    (n even) contributes a single edge, so degree is
    [2·|offsets| − (1 if n/2 ∈ offsets)]. *)

val clique_circulant : n:int -> d:int -> Graph.t
(** The Theorem 4.2 construction: nodes [0 .. n-1], edges between [i]
    and [j] iff [(i − j) mod n ∈ {±1, .., ±⌊d/2⌋}], plus the antipodal
    matching when [d] is odd ([n] must then be even).  Contains the
    clique [C = {0, .., ⌊d/2⌋ − 1}] when [n] is large enough.
    d-regular.  Requires [n > 2 * (d / 2)]. *)

val clique_circulant_offsets : n:int -> d:int -> int list
(** The offsets [clique_circulant ~n ~d] passes to {!circulant}:
    [1 .. ⌊d/2⌋], then [n/2] when [d] is odd.  Same checks. *)

val petersen : unit -> Graph.t
(** The Petersen graph: 10 nodes, 3-regular, girth 5, odd girth 5,
    diameter 2 — a fixed awkward instance for structural tests. *)

val random_regular : ?max_attempts:int -> Prng.Splitmix.t -> n:int -> d:int -> Graph.t
(** Uniform-ish random simple d-regular graph by the pairing
    (configuration) model with rejection of loops/parallel edges and a
    final edge-switch repair pass, run in place on the adjacency rows:
    the build's peak heap is the graph itself, an n·d-word adjacency
    and an edge list of n·d 32-bit slots, plus one n-int row cursor
    (which the checks and the connectivity BFS reuse) and O(n) bytes.
    [n·d] must be even, [d < n].
    @raise Failure if no simple graph is found within
    [max_attempts] (default 200) full restarts — practically unreachable
    for d = O(√n). *)

val bipartite_double_cover : Graph.t -> Graph.t
(** The double cover: nodes (u, σ) for σ ∈ {0,1} (encoded u and n+u),
    with (u,0)–(v,1) for every edge uv.  Always bipartite and d-regular;
    connected iff the base graph is connected and non-bipartite — the
    structure behind {!Props.odd_girth}'s computation. *)
