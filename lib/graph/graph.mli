(** Regular undirected graphs, viewed as symmetric directed graphs.

    This is the "original graph" G of the paper (§1.3): every node has
    [degree] original edges, addressed by {e port} numbers
    [0 .. degree-1].  Self-loops of the balancing graph G⁺ are {e not}
    stored here — they are a per-simulation parameter (the number d° of
    self-loops), handled by the balancing engine.

    Parallel edges are supported; self-edges [u = u] are rejected,
    matching the paper's assumption that G is initially simple in that
    respect. *)

type t
(** Two flat int arrays: the adjacency, indexed [u·degree + k], and the
    edge list [ends], edge [i] being [(ends.(2i), ends.(2i+1))] in the
    order given.  Ports are numbered in edge order at both endpoints, so
    reverse ports are found by scanning two rows, not stored. *)

val of_edges : n:int -> (int * int) list -> t
(** [of_edges ~n edges] builds a graph on nodes [0 .. n-1] from
    undirected edges.  Every edge [(u, v)] contributes one port at [u]
    and one at [v]; ports are numbered in order of appearance.
    @raise Invalid_argument on [n <= 0], on out-of-range endpoints, on
    [u = v], or if the resulting graph is not regular. *)

val of_ends : n:int -> int array -> t
(** [of_ends ~n ends] is {!of_edges} over an interleaved edge array the
    caller filled, edge [i] being [(ends.(2i), ends.(2i+1))].  The graph
    adopts [ends] without copying; the caller must not mutate it
    afterwards.
    @raise Invalid_argument as {!of_edges}, or if [ends] has odd length. *)

val fill_rows : degree:int -> int array -> int array -> int array -> unit
(** [fill_rows ~degree ends adj cursor] writes each edge of [ends], in
    order, at port [cursor.(u)] of each endpoint [u] whose cursor is below
    [degree], advancing it: rows whose cursor starts at 0 are laid out in
    edge order, rows at [degree] are left alone.  For in-place builds. *)

val of_rows : n:int -> int array -> int array -> t
(** [of_rows ~n ends adj] adopts the edge list [ends] and its rows [adj],
    laid out in edge order by {!fill_rows}, without copying; the caller
    must not mutate them afterwards.
    @raise Invalid_argument as {!of_edges}, or if [adj] is not n·degree long. *)

val n : t -> int
(** Number of nodes. *)

val degree : t -> int
(** The common degree d. *)

val edge_count : t -> int
(** Number of undirected edges (= n·d/2). *)

val neighbor : t -> int -> int -> int
(** [neighbor g u k] is the node at the other end of port [k] of [u].
    @raise Invalid_argument out of range. *)

val reverse_port : t -> int -> int -> int
(** [reverse_port g u k] is the port [k'] at [v = neighbor g u k] such
    that the directed edges [(u, k)] and [(v, k')] are the two
    orientations of the same undirected edge; the j-th port of [u] to
    [v] pairs with the j-th port of [v] to [u].  O(degree). *)

val reverse_ports : t -> int array
(** A fresh table: entry [u * degree + k] is [reverse_port g u k].
    One O(n·degree) pass over the edge list. *)

val edges : t -> (int * int) array
(** The undirected edges, each once, in the order they were given (not
    normalized to [u <= v]), as a fresh array of tuples. *)

val iter_edges : t -> (int -> int -> unit) -> unit
(** [iter_edges g f] calls [f u v] on each edge of {!edges}, in order,
    without allocating. *)

val adjacency : t -> int array
(** The flat adjacency array: entry [u * degree + k] is
    [neighbor g u k].  Exposed (not copied) for hot simulation loops;
    treat as read-only. *)

val iter_ports : t -> int -> (int -> int -> unit) -> unit
(** [iter_ports g u f] calls [f k v] for each port [k] with endpoint
    [v]. *)

val multiplicity : t -> int -> int -> int
(** Number of parallel edges between two nodes.  O(degree). *)

val has_parallel_edges : t -> bool
