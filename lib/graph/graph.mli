(** Undirected graphs in the fixed-port model.

    Vertices are integers in [0, n). Each vertex [u] numbers its incident
    edges with consecutive {e ports} [0 .. degree u - 1]; routing schemes
    forward messages by naming a port, exactly as in the fixed-port model of
    Fraigniaud and Gavoille that the paper assumes (Section 2).

    Edges carry strictly positive [float] weights. Unweighted graphs are
    represented with all weights equal to [1.0] ({!is_unit_weighted}). *)

type t

(** {1 Construction}

    Every construction path produces the same canonical port numbering:
    each vertex numbers its ports in ascending neighbor order. Duplicate
    edges are deduplicated keeping the smallest weight per unordered
    pair; self-loops, non-positive weights and negative ids are
    rejected. *)

val of_edges : ?n:int -> (int * int * float) list -> t
(** [of_edges ~n edges] builds a graph from an undirected edge list.
    [n] defaults to [1 + max vertex id].
    @raise Invalid_argument on a self-loop, a non-positive weight, or a
    negative vertex id. *)

val of_unweighted_edges : ?n:int -> (int * int) list -> t
(** [of_unweighted_edges ~n edges] is [of_edges] with all weights [1.0]. *)

(** Streaming CSR builder, the one construction path: push edges one at a
    time, then [finish]. No intermediate edge list is materialized — the
    buffered endpoints go straight into the CSR with a
    degree-count-then-fill pass. {!of_edges} is a builder over a list. *)
module Builder : sig
  type graph := t

  type t

  val create : ?n:int -> ?hint:int -> unit -> t
  (** [create ?n ?hint ()] starts an empty builder. When [n] is given,
      vertex ids are validated eagerly against it; otherwise the vertex
      count is [1 + max id] at {!finish} time. [hint] sizes the initial
      edge buffer. *)

  val add_edge : t -> int -> int -> float -> unit
  (** [add_edge b u v w] buffers one undirected edge.
      @raise Invalid_argument on a self-loop, non-positive weight,
      negative id, or (when [n] was declared) an id [>= n]. *)

  val count : t -> int
  (** Edges buffered so far (before deduplication). *)

  val finish : ?n:int -> ?float32:bool -> t -> graph
  (** Freeze the buffered edges into a graph. [n] overrides the vertex
      count declared at {!create} (it must cover every buffered id) —
      for callers that only learn the count mid-stream. [float32] stores
      the weights as float32 (default [false]: float64); see {!pack}.
      @raise Invalid_argument, before allocating anything, if [n] or
      twice the buffered edge count exceeds {!csr_limit}; or if a weight
      does not survive the float32 rounding. *)
end

(** {1 Storage}

    One representation: offsets and endpoints are int32 bigarrays, so
    [n] and [2m] are at most {!csr_limit}; weights are a float64
    [float array], or a float32 bigarray on request ({!pack},
    {!Builder.finish}) at half the weight memory. Every operation keeps
    the weight precision of its input. *)

val csr_limit : int
(** [Int32.max_int]: the largest vertex count and the largest half-edge
    count [2m] a graph can have. *)

type int32_array = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
type float32_array = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

type weights =
  | W64 of float array
  | W32 of float32_array

type csr = {
  off : int32_array;  (** offsets, length [n + 1]; [off.{n} = 2m] *)
  dst : int32_array;  (** endpoints, length [2m], by flat half-edge index *)
  wgt : weights;  (** weights, parallel to [dst] *)
}
(** The adjacency in compressed-sparse-row form: the half-edges of vertex
    [u] occupy the flat slice [off.{u} .. off.{u+1} - 1] of [dst]/[wgt],
    and port [p] of [u] is flat index [off.{u} + p]. *)

val csr : t -> csr
(** The graph's own storage (no copy): callers must not mutate it. Hot
    loops read it directly. *)

val weight : weights -> int -> float
(** [weight w i] reads index [i] of either weight precision. *)

val pack : ?float32:bool -> t -> t
(** [pack ~float32:true g] is [g] with its weights stored as float32,
    sharing [g]'s offsets and endpoints; weights must survive the
    rounding as finite positive values, which unit weights always do.
    Distances computed over float32 weights reflect the rounded values.
    Without [~float32:true], or on float32 weights, it returns [g]
    itself.
    @raise Invalid_argument if a weight rounds to zero or infinity. *)

val storage_bytes : t -> int
(** Payload bytes of the CSR triple (array headers excluded). *)

(** {1 Basic accessors} *)

val n : t -> int
(** Number of vertices. *)

val m : t -> int
(** Number of undirected edges. *)

val degree : t -> int -> int
(** [degree g u] is the number of ports of [u]. *)

val max_degree : t -> int
(** Largest degree (0 for an edgeless graph). *)

val avg_degree : t -> float
(** [2m / n] (0 when [n = 0]). *)

val endpoint : t -> int -> int -> int
(** [endpoint g u p] is the neighbor of [u] reached through port [p].
    @raise Invalid_argument if [p] is not a valid port of [u]. *)

val port_weight : t -> int -> int -> float
(** [port_weight g u p] is the weight of the edge behind port [p] of [u]. *)

val port_to : t -> int -> int -> int option
(** [port_to g u v] is the port of [u] whose endpoint is [v], if the edge
    [(u, v)] exists. The standard routing model assumes a vertex can resolve
    a neighbor to the connecting link (paper, footnote 2). Ports are in
    ascending neighbor order, so this is a binary search over the vertex's
    own CSR slice: O(log degree u), no side index. *)

val has_edge : t -> int -> int -> bool

val edge_weight : t -> int -> int -> float option

val neighbors : t -> int -> (int * float) list
(** [neighbors g u] is the list of (neighbor, weight) pairs in port order. *)

val iter_neighbors : t -> int -> (port:int -> v:int -> w:float -> unit) -> unit
(** [iter_neighbors g u f] applies [f] to each incident edge of [u] in port
    order. This is the hot-path accessor: it performs no allocation. *)

val fold_edges : (int -> int -> float -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold_edges f g acc] folds over each undirected edge once, with [u < v]. *)

val edges : t -> (int * int * float) list
(** All undirected edges, each once, with [u < v], sorted. *)

val is_unit_weighted : t -> bool
(** [true] iff every edge has weight exactly [1.0]. *)

val min_edge_weight : t -> float
(** Minimum edge weight. Equals the minimum pairwise distance
    [min_{u <> v} d(u,v)] of the graph, which the paper uses to normalize
    weighted graphs (Lemma 8).
    @raise Invalid_argument on an edgeless graph. *)

val max_edge_weight : t -> float
(** Maximum edge weight. @raise Invalid_argument on an edgeless graph. *)

(** {1 Batched deltas}

    The dynamic-graph entry point: a batch of edge changes applied in one
    step. Endpoints may be given in either orientation; at most one op per
    unordered pair is allowed per batch, so applying the ops sequentially
    and as a batch agree. *)

type delta_op =
  | Insert of int * int * float  (** new edge with a strictly positive weight *)
  | Remove of int * int          (** delete an existing edge *)
  | Reweight of int * int * float  (** replace the weight of an existing edge *)

val apply_delta : t -> delta_op list -> t
(** [apply_delta g ops] is the graph after the batch. The port numbering of
    every vertex not incident to an [Insert] or [Remove] is preserved
    verbatim (a [Reweight] never renumbers), and the result is structurally
    identical — same ports everywhere — to [of_edges ~n] over the edited
    edge list. [apply_delta g []] is [g] itself (physically). The result
    keeps the weight precision of [g]: on float32 weights, new weights
    are stored rounded.
    @raise Invalid_argument on an out-of-range or equal endpoint pair, a
    non-positive weight, an [Insert] of an edge already present (duplicate
    edge), a [Remove]/[Reweight] of an absent edge, or two ops on the same
    unordered pair in one batch. *)

(** {1 Transformation} *)

val reweight : t -> (int -> int -> float -> float) -> t
(** [reweight g f] replaces the weight of each edge [(u, v, w)] (with
    [u < v]) by [f u v w]. Port numbering and weight precision are
    preserved; the result shares [g]'s offsets and endpoints. *)

val unit_weighted : t -> t
(** [unit_weighted g] is [g] with every weight replaced by [1.0], at
    [g]'s weight precision. *)

val subgraph_of_edges : t -> (int * int) list -> t
(** [subgraph_of_edges g kept] is the subgraph of [g] on the same vertex set
    containing exactly the listed edges (weights copied from [g], at its
    precision).
    @raise Invalid_argument if a listed edge is absent from [g]. *)

(** {1 Pretty-printing} *)

val pp : Format.formatter -> t -> unit
(** Prints a short summary [graph(n=.., m=.., weighted|unit)]. *)
