(** Shortest paths on weighted graphs (Dijkstra's algorithm).

    All variants settle vertices in [(distance, vertex id)] order — the exact
    tie-breaking rule under which the paper defines vicinities [B(u, l)] and
    nearest centers [p_A(u)] (Section 2), and under which Property 1 holds. *)

(** {1 Single source} *)

type tree = {
  source : int;
  dist : float array;        (** [dist.(v)] = d(source, v), or [infinity]. *)
  parent : int array;        (** parent toward the source's tree root, [-1] at source/unreachable. *)
  parent_port : int array;   (** port of [parent.(v)] leading to [v], or [-1]. *)
  first_port : int array;    (** first port out of the source toward [v], or [-1]. *)
  order : int array;         (** settled vertices in [(dist, id)] order. *)
}

val spt : Graph.t -> int -> tree
(** [spt g s] is the shortest-path tree rooted at [s], covering the connected
    component of [s]. Among equal-length paths the tree prefers the parent
    settled first, which makes it deterministic. The returned tree owns its
    arrays. *)

val path_to : tree -> int -> int list
(** [path_to t v] is the vertex sequence from [t.source] to [v] along the
    tree, inclusive. @raise Invalid_argument if [v] is unreachable. *)

val path_from : tree -> int -> int list
(** [path_from t x] is the vertex sequence from [x] {e to the root}
    [t.source] along the tree, inclusive — i.e. a shortest path from [x] to
    the source. @raise Invalid_argument if [x] is unreachable. *)

(** {1 Reusable workspaces}

    A search from one source needs five [n]-sized scratch arrays plus a
    heap; allocating them per source makes an all-sources sweep cost O(n^2)
    allocation. A {!workspace} allocates the scratch once; each search
    resets only the vertices it actually touched, so n truncated searches
    of size l cost O(n l) maintenance, and the per-call allocation in the
    construction hot paths drops to the (small) returned results.

    Workspaces are single-owner: one search at a time, and not shared
    across domains — the parallel preprocessing pool gives each domain its
    own (see [Cr_routing.Pool]). *)

type workspace

val workspace : int -> workspace
(** [workspace n] is a fresh workspace for graphs with at most [n]
    vertices. @raise Invalid_argument if [n < 0]. *)

val with_spt : workspace -> Graph.t -> int -> (tree -> 'a) -> 'a
(** [with_spt ws g s f] computes the same tree as [spt g s] without
    allocating scratch, and applies [f] to it. The tree {e borrows} the
    workspace arrays: it is valid only during [f], and [f] must copy
    whatever it needs to keep ([order] alone is fresh and may be
    retained). The workspace is reset afterwards, also when [f] raises.
    A pop or a relaxation allocates nothing, here and in every borrowed
    search below: a run allocates its [order] and a constant. *)

val with_spt_until :
  workspace -> Graph.t -> int -> until:int -> (tree -> 'a) -> 'a
(** [with_spt_until ws g s ~until f] runs the search of {!with_spt} but
    stops right after settling (and scanning) vertex [until]. The borrowed
    tree's [order] is the settled prefix: every vertex at most as close as
    [until] under [(dist, id)] order, with final distances, parents and
    ports identical to the full tree's; vertices beyond [until] read as
    unreachable ([infinity]/[-1]). If [until] is not reachable from [s]
    the search degenerates to a full [with_spt]. *)

val with_restricted :
  workspace -> Graph.t -> int -> limit:float array -> (tree -> 'a) -> 'a
(** [with_restricted ws g w ~limit f]: as {!restricted}, borrowed like
    {!with_spt}. *)

(** {1 Truncated search — the [B(u, l)] primitive} *)

type truncated = {
  src : int;
  vertices : int array;      (** the [l] settled vertices in [(dist, id)] order; [vertices.(0) = src]. *)
  dists : float array;       (** [dists.(i)] = d(src, vertices.(i)). *)
  parents : int array;       (** tree parent of [vertices.(i)], as a vertex id. *)
  first_ports : int array;   (** first port out of [src] toward [vertices.(i)]; [-1] for [src]. *)
  next_dist : float option;
      (** Distance of the nearest vertex excluded from [B(src, l)]:
          [Some d] means the [(l+1)]-th closest vertex (under [(dist, id)]
          order) exists and its exact distance is [d] — in particular
          [d >= dists.(l-1)], with equality exactly when the distance class
          at the truncation boundary is split between settled and excluded
          vertices. [None] iff {e every} vertex reachable from [src] was
          settled (the component has at most [l] vertices), i.e. nothing
          was excluded — not merely "the search frontier emptied". *)
}

val truncated : Graph.t -> int -> int -> truncated
(** [truncated g s l] settles the [min l (component size)] closest vertices
    of [s] under [(dist, id)] order: the paper's [B(s, l)]. [l] is clamped
    to at least 1. The result owns its arrays. *)

val truncated_ws : workspace -> Graph.t -> int -> int -> truncated
(** [truncated_ws ws g s l] is [truncated g s l] computed in [ws]: no
    [n]-sized allocation, only the l-sized result (safe to retain). *)

(** {1 Multi-source — nearest centers} *)

type multi = {
  dist_to_set : float array; (** [d(v, A)], or [infinity]. *)
  nearest : int array;       (** [p_A(v)]: nearest center, ties by smaller id; [-1] if unreachable. *)
  mparent : int array;       (** parent toward [p_A(v)], [-1] at centers. *)
}

val multi_source : Graph.t -> int list -> multi
(** [multi_source g centers] computes [d(v, A)] and [p_A(v)] for [A =
    centers]. If [A] is empty every distance is [infinity]. *)

(** {1 Restricted search — Thorup–Zwick clusters} *)

val restricted : Graph.t -> int -> limit:float array -> tree
(** [restricted g w ~limit] runs Dijkstra from [w] but only settles a vertex
    [v] whose (final) distance satisfies [dist < limit.(v)]; [limit] has
    one entry per vertex. With [limit.(v) = d(v, A)] this computes the
    cluster [C_A(w) = { v | d(w,v) < d(v,A) }] together with its
    shortest-path tree (clusters are connected under shortest paths, cf.
    paper Section 2). Unvisited vertices have [dist = infinity] in the
    result. The returned tree owns a fresh workspace's arrays; a sweep
    over many [w] uses {!with_restricted}. *)
