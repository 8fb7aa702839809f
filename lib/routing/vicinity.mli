open Cr_graph

(** Vertex vicinities [B(u, l)] — the [l] closest vertices of [u] under
    [(distance, id)] tie-breaking — together with the radius [r_u(l)] and the
    Lemma 2 shortest-path routing rule.

    Property 1 (Awerbuch et al.): if [v] is in [B(u, l)] and [w] lies on a
    shortest path between [u] and [v], then [v] is in [B(w, l)]. It holds
    under exactly this tie-breaking, which is why Lemma 2 routing — every
    vertex forwarding along its own stored first edge — stays on a shortest
    path and always finds the next entry. *)

type t

val compute : Graph.t -> int -> int -> t
(** [compute g u l] is the vicinity [B(u, l)] (clamped to the component). *)

val compute_all : ?pool:Pool.t -> ?packed:bool -> Graph.t -> int -> t array
(** [compute_all g l] is [B(u, l)] for every vertex, indexed by vertex.
    The per-source truncated searches run on [pool] (default
    {!Pool.default}) with one reusable [Dijkstra.workspace] per domain;
    the result is identical to computing each vicinity serially.

    With [~packed:true] the family is stored as one shared int32/float64
    Bigarray block (16 B per member instead of boxed arrays plus an
    index per vertex — the difference between ~32 GB and out-of-memory
    at n = 10^6, l ~ 2000). The searches are the same ones, so every
    accessor answers bit-identically; membership lookups become linear
    scans of at most [l] entries. Each vertex fills its own disjoint
    stride, so the parallel fill is deterministic too. *)

val source : t -> int

val size : t -> int

val mem : t -> int -> bool

val dist : t -> int -> float
(** [dist b v] is d(source, v). @raise Not_found if [v] is not a member. *)

val dist_or_infinity : t -> int -> float
(** [dist_or_infinity b v] is [dist b v] for a member and [infinity]
    otherwise, in one lookup. *)

val first_port : t -> int -> int
(** [first_port b v] is the first port on a shortest path from the source to
    member [v]. @raise Not_found if absent; @raise Invalid_argument on the
    source itself. *)

val radius : t -> float
(** [radius b] is [r_u(l)]: the largest distance [r] such that {e every}
    vertex at distance exactly [r] from the source is a member. On an
    unweighted graph every member satisfies [d <= radius + 1]
    (paper Section 2). *)

val members : t -> int array
(** Members in [(dist, id)] order; [members.(0)] is the source. On a
    packed vicinity the array is materialized per call — treat it as
    read-only and don't rely on physical identity across calls. *)

val max_dist : t -> float
(** Distance of the farthest member. *)

val rank : t -> int -> int option
(** [rank b v] is [v]'s position in the [(dist, id)] order (0 for the
    source), if a member. Because vicinities are nested — [B(u, l')] is a
    prefix of [B(u, l)] for [l' <= l] — [rank b v < l'] decides membership
    in the smaller vicinity, which the generalized schemes of Section 5 use
    to store only their largest vicinity. *)

val prefix_radius : t -> int -> float
(** [prefix_radius b l'] is [r_u(l')] for a prefix size [l' <= size b]
    (clamped), computed without re-running the search. *)

val nearest_of : t -> (int -> bool) -> int option
(** [nearest_of b pred] is the member closest to the source satisfying
    [pred] (ties by id), e.g. "nearest vertex of color c" or "some vertex of
    the hitting set". *)

val step : t array -> at:int -> dst:int -> int
(** Lemma 2: the port that [at] uses to forward a message addressed to
    [dst], assuming [dst] is in [B(at, l)]. The caller routes by repeating
    [step] at each intermediate vertex; Property 1 guarantees membership is
    preserved along the way. @raise Not_found if [dst] is not in [B(at, l)]. *)

val remap_ports : t -> (int -> int) -> t
(** [remap_ports b f] replaces every stored first-hop port [p] of the
    source by [f p] (members, distances and radius are shared, not
    copied). Used by the substrate's delta invalidation when a surviving
    vicinity's source had its ports renumbered: [f] maps an old port of
    the source to the same physical link's port on the new graph. *)

(** What a topology delta does to one vicinity of a family. *)
type fate =
  | Keep  (** the ball is the same on the new graph *)
  | Remap of (int -> int)
      (** the same but for the source's port numbers: maps each old first
          port to the same link's port on the new graph *)
  | Recompute  (** the ball may differ: search the new graph again *)

val update : Graph.t -> int -> t array -> (t -> fate) -> t array
(** [update g' l vics fate] is the family [B(u, l)] on the new graph [g'],
    from the family [vics] on the old graph and the [fate] of each of its
    vicinities. Recomputed vicinities are searched in one workspace per
    call. A packed family ([compute_all ~packed:true], {!thaw}) stays one
    packed family, laid out as [compute_all ~packed:true g' l] lays it
    out: its blocks are copied once and the remapped and recomputed rows
    written into the copy. [vics] itself is never written. *)

(** {1 Snapshot form} *)

type frozen
(** A vicinity array in marshal-safe form: the same entries, with each
    packed family's Bigarray blocks replaced by snapshot blob ids and the
    family named by its index in a table of such families; everything
    else rides the caller's Marshal residue. *)

val freeze : Snapshot.sink -> t array -> frozen

val thaw : Snapshot.source -> frozen -> t array
(** Rebuilds each packed family once, so slices share one block again.
    Callers with sub-structures that shared the builder's vicinity array
    should thaw once and pass the result down, restoring that sharing. *)

val payload_bytes : t array -> int
(** Bigarray payload bytes reachable from the array (shared families
    counted once) — the part of the footprint [Obj.reachable_words]
    cannot see. *)
