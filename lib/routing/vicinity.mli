open Cr_graph

(** Vertex vicinities [B(u, l)] — the [l] closest vertices of [u] under
    [(distance, id)] tie-breaking — together with the radius [r_u(l)] and the
    Lemma 2 shortest-path routing rule.

    Property 1 (Awerbuch et al.): if [v] is in [B(u, l)] and [w] lies on a
    shortest path between [u] and [v], then [v] is in [B(w, l)]. It holds
    under exactly this tie-breaking, which is why Lemma 2 routing — every
    vertex forwarding along its own stored first edge — stays on a shortest
    path and always finds the next entry.

    A family — [B(u, l)] for every vertex [u] — has one storage: one
    packed int32/float64 Bigarray block of stride [l] (16 B per member,
    no per-vertex index), where a row answers membership by a scan of at
    most [l] entries. Vicinities are nested, [B(u, l')] being the first
    [l'] members of [B(u, l)], so a smaller family can be a view of a
    larger one's block ({!prefix}). *)

type t
(** One vertex's vicinity: a row of a family. Every [t array] this module
    returns holds the rows of one family, row [u] at index [u]; the
    functions taking a whole array require that shape and raise
    [Invalid_argument] otherwise. *)

val compute_all : ?pool:Pool.t -> Graph.t -> int -> t array
(** [compute_all g l] is [B(u, l)] for every vertex, indexed by vertex,
    with [l] clamped to [1 .. n] (a ball never holds more than its
    component). The per-source truncated searches run on [pool] (default
    {!Pool.default}) with one reusable [Dijkstra.workspace] per domain;
    each vertex fills its own disjoint stride of the block, so the result
    is identical to computing each vicinity serially. *)

val prefix : t array -> int -> t array
(** [prefix vics l'] is the family [B(u, l')] for a family [vics] of size
    [l >= l'] ([l'] is clamped to at least 1; a larger [l'] cuts nothing):
    each row cut to its first [l'] members, each radius from
    {!prefix_radius}. Since [B(u, l')] is the prefix of [B(u, l)] under
    [(distance, id)] order, it answers every accessor as
    [compute_all g l'] does, without a search: it shares the three blocks
    of [vics], and only the lengths and radii are its own. *)

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
(** Members in [(dist, id)] order; [members.(0)] is the source. The array
    is a fresh copy of the row, materialized per call. *)

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
    vicinities. The blocks are copied once and the remapped and recomputed
    rows written into the copy, so the result is one family laid out as
    [compute_all g' l] lays it out; recomputed vicinities are searched in
    one workspace per call. [vics] itself is never written. *)

(** {1 Snapshot form} *)

type frozen
(** A vicinity array in marshal-safe form: its family, with the three
    blocks replaced by snapshot blob ids. *)

val freeze : Snapshot.sink -> t array -> frozen
(** A block shared by several families (a {!prefix} view and its source)
    is written once. *)

val thaw : Snapshot.source -> frozen -> t array
(** Rebuilds the family once, its rows sharing the mapped blocks. Callers
    with sub-structures that shared the builder's vicinity array should
    thaw once and pass the result down, restoring that sharing. *)

val payload_bytes : t array -> int
(** Bigarray payload bytes of the family's blocks — the part of the
    footprint [Obj.reachable_words] cannot see. A {!prefix} view reports
    the blocks it shares with its source. *)
