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
(** A flat int array, the adjacency indexed [u·degree + k], and the edge
    list {!ends} in 32-bit slots, edge [i] being [(slot 2i, slot 2i+1)]
    in the order given.  Ports are numbered in edge order at both
    endpoints, so reverse ports are found by scanning two rows, not
    stored. *)

type ends = Prng.Slots.t
(** An edge list in 32-bit slots, each holding a node id in
    [\[0, 2³¹)]: half the size of an int array. *)

val max_end : int
(** 2³¹ − 1, the largest node id a slot holds. *)

val make_ends : n:int -> int -> ends
(** [make_ends ~n k] is [k] slots holding 0, for an edge list on nodes
    [0 .. n-1].  A generator that computes its ids below [n] may write
    them unchecked once this has accepted [n].
    @raise Invalid_argument ["Graph.of_edges: n must be positive"] if
    [n <= 0], ["Graph.of_edges: endpoint out of range"] if [n - 1]
    exceeds {!max_end}, and as {!Prng.Slots.make} on [k], all before
    anything is allocated. *)

val set_end : ends -> int -> int -> unit
(** [set_end ends i v] stores node id [v] in slot [i]: the checked
    writer for ids read from outside.
    @raise Invalid_argument ["Graph.of_edges: endpoint out of range"]
    unless [0 <= v < 2³¹], and as {!Prng.Slots.set} if [i] is not a
    slot of [ends]. *)

val of_edges : n:int -> (int * int) list -> t
(** [of_edges ~n edges] builds a graph on nodes [0 .. n-1] from
    undirected edges.  Every edge [(u, v)] contributes one port at [u]
    and one at [v]; ports are numbered in order of appearance.
    @raise Invalid_argument on [n <= 0], on out-of-range endpoints, on
    [u = v], or if the resulting graph is not regular. *)

val of_ends : n:int -> ends -> t
(** [of_ends ~n ends] is {!of_edges} over an edge list the caller
    filled, edge [i] being [(slot 2i, slot 2i+1)].  The graph adopts
    [ends] without copying; the caller must not mutate it afterwards.
    @raise Invalid_argument as {!of_edges}, or if [ends] has an odd
    number of slots. *)

val fill_rows : degree:int -> ends -> int array -> int array -> unit
(** [fill_rows ~degree ends adj cursor] writes each edge of [ends], in
    order, at port [cursor.(u)] of each endpoint [u] whose cursor is below
    [degree], advancing it: rows whose cursor starts at 0 are laid out in
    edge order, rows at [degree] are left alone.  For in-place builds. *)

val of_rows : n:int -> ends -> int array -> cursor:int array -> marked:Bytes.t -> t
(** [of_rows ~n ends adj ~cursor ~marked] adopts the edge list [ends] and
    its rows [adj] without copying; the caller must not mutate them
    afterwards.  [adj] holds rows laid out in edge order by {!fill_rows},
    except the rows whose byte in [marked] is non-zero, which may hold
    anything: one pass over [ends] runs [of_edges]' checks, counting
    degrees in [cursor], and re-lays the marked rows in edge order as it
    goes.  [cursor], the n-long row cursor, is dead once the rows are
    laid out: it is overwritten, and the caller may reuse it, as it may
    [marked].
    @raise Invalid_argument as {!of_edges}, or if [adj] is not
    n·degree long or [cursor] or [marked] not n long; the marked rows may
    have been rewritten by then. *)

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
