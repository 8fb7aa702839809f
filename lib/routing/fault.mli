open Cr_graph

(** Deterministic fault injection for the fixed-port simulator.

    A {!plan} is a frozen description of everything that goes wrong during
    one simulated run: a set of links that are down for the whole run, a set
    of crashed vertices, and per-hop probabilities of message loss and header
    corruption. Plans are derived purely from a seed and the graph, and the
    per-hop events come from a pure hash of [(seed, vertex, port, hop index)]
    — so replaying the same plan over the same scheme is bit-reproducible,
    which is what lets the tests pin exact degraded behavior.

    The theory this repository reproduces assumes a static, healthy network;
    this module is the lever that takes every scheme outside that assumption
    (cf. Krioukov et al., {e Compact Routing on Internet-Like Graphs}). *)

(** {1 Specifications} *)

type spec = {
  seed : int;                  (** derives the failed sets and per-hop events *)
  link_failure_rate : float;   (** fraction of edges down for the whole run *)
  vertex_failure_rate : float; (** fraction of vertices crashed *)
  drop_prob : float;           (** per traversed hop, chance the message is lost *)
  corrupt_prob : float;        (** per traversed hop, chance the header is garbled *)
}

val spec :
  ?seed:int ->
  ?link_failure_rate:float ->
  ?vertex_failure_rate:float ->
  ?drop_prob:float ->
  ?corrupt_prob:float ->
  unit ->
  spec
(** All rates default to [0.0] (and [seed] to [0]): [spec ()] is the
    no-fault specification.
    @raise Invalid_argument if a rate is outside [[0, 1]]. *)

(** {1 Plans} *)

type plan

val compile : spec -> Graph.t -> plan
(** [compile s g] freezes the fault plan for [g]: the
    [round (link_failure_rate * m)] edges and
    [round (vertex_failure_rate * n)] vertices with the smallest seed-derived
    hash are marked down. Selection depends only on [s.seed] and the
    endpoints, never on iteration order, so the same (seed, graph) pair
    always fails the same elements. *)

val of_failures :
  ?spec:spec -> Graph.t -> links:(int * int) list -> vertices:int list -> plan
(** [of_failures g ~links ~vertices] builds a plan that fails exactly the
    listed edges and vertices — the hand-built-plan entry point the unit
    tests use. Probabilistic rates are taken from [spec] (default: none).
    @raise Invalid_argument if a listed link is not an edge of [g] or a
    vertex is out of range; the message names the offending entry by its
    1-based position in the list (["links[3] = (0, 9) is not an edge"]),
    so a bad element in a long generated failure list is findable. *)

val empty : Graph.t -> plan
(** A compiled plan with no faults at all ([compile (spec ()) g]). *)

val is_empty : plan -> bool
(** No failed links, no crashed vertices, zero drop and corruption
    probability: routing under this plan must be bit-identical to routing
    with no plan. *)

(** {1 Static queries} *)

val corrupts : plan -> bool
(** The plan garbles headers: its per-hop corruption probability is
    nonzero. *)

val link_down : plan -> int -> int -> bool
(** [link_down p u v] — is the undirected edge [(u, v)] failed? *)

val vertex_down : plan -> int -> bool

val failed_links : plan -> (int * int) list
(** Failed edges, each once with [u < v], sorted. *)

val failed_vertices : plan -> int list

(** {1 Per-hop events} *)

type event =
  | Pass     (** the hop goes through unharmed *)
  | Drop     (** the message is lost in flight *)
  | Corrupt  (** the message arrives with a garbled header *)

val decide : plan -> at:int -> port:int -> index:int -> event
(** [decide p ~at ~port ~index] is the fate of the hop that vertex [at]
    transmits through [port] after [index] hops of the run. It is a pure
    function of the plan's seed and those three, so the same plan always
    makes the same call on the same hop and a faulty run can be replayed
    exactly; it allocates nothing. Drop is tested before corruption. *)

(** {1 Hashing} *)

val hash4 : int -> int -> int -> int -> int64
(** [hash4 a b c d] is a SplitMix64 avalanche of the four ints: the
    stateless hash behind every seed-derived choice here and in
    {!Traffic}. [[@inline]], so a caller that feeds it straight to {!u01}
    keeps the [int64] unboxed. *)

val u01 : int64 -> float
(** A uniform float in [[0, 1)] from the top 53 bits of a hash. *)

val pp : Format.formatter -> plan -> unit
(** One-line summary: counts of failed links/vertices and the hop rates. *)
