(** Structural graph properties: distances, diameter, bipartiteness and
    (odd) girth.  All run in O(n·m) or better — fine at experiment scale
    (n up to a few thousand). *)

val bfs_distances : Graph.t -> int -> int array
(** [bfs_distances g src] is the array of hop distances from [src];
    unreachable nodes get [max_int]. *)

val eccentricity : Graph.t -> int -> int
(** Maximum finite distance from a node.
    @raise Failure if the graph is disconnected. *)

val diameter : Graph.t -> int
(** Maximum eccentricity.  @raise Failure if disconnected. *)

val is_connected : ?queue:int array -> Graph.t -> bool
(** Whether every node is reachable from node 0.  One BFS that marks
    nodes with a byte each; its queue is [queue] when given (at least
    n long, overwritten), so a caller with a dead n-int array can lend
    it, and a fresh n-int array otherwise.
    @raise Invalid_argument if [queue] is shorter than n. *)

val is_bipartite : Graph.t -> bool

val girth : Graph.t -> int option
(** Length of the shortest cycle; [None] for forests.  Parallel edges
    count as 2-cycles. *)

val odd_girth : Graph.t -> int option
(** Length of the shortest odd cycle; [None] iff bipartite.  The paper's
    φ(G) satisfies odd_girth = 2·φ(G) + 1. *)

val phi : Graph.t -> int option
(** [phi g] is the paper's φ(G), i.e. [(odd_girth − 1) / 2]. *)
