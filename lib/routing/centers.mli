open Cr_graph

(** Center sets, bunches and clusters (Thorup–Zwick; paper Lemma 4).

    For a center set [A]: [p_A(v)] is the nearest center (ties by smaller
    id), the {e bunch} [B_A(v) = { w | d(w,v) < d(v,A) }], and the
    {e cluster} [C_A(w) = { v | d(w,v) < d(v,A) }]. [w ∈ B_A(v)] iff
    [v ∈ C_A(w)]; clusters are connected under shortest paths, so each has a
    shortest-path tree rooted at its center. *)

type t = {
  centers : int array;      (** the set [A], sorted *)
  is_center : bool array;
  dist_to_a : float array;  (** [d(v, A)]; [infinity] if [A] is empty *)
  p_a : int array;          (** [p_A(v)], or [-1] *)
  fparent : int array;
      (** parent in the multi-source shortest-path forest toward [p_A(v)];
          [-1] at centers, unreachable vertices, and when [A] is empty.
          Following [fparent] from [v] walks a shortest path [v ~> p_A(v)],
          so each forest edge [(fparent.(v), v)] lies on a shortest path. *)
}

val of_centers : Graph.t -> int list -> t
(** Computes distances/nearest centers for a given [A] (one multi-source
    Dijkstra). *)

val sample : seed:int -> Graph.t -> target:int -> t
(** [sample ~seed g ~target] is Lemma 4: a set [A] of expected size
    [O(target * log n)] such that every cluster satisfies
    [|C_A(w)| <= 4 n / target]. Iterated sampling with resampling of the
    vertices whose clusters are still too large; the bound is {e verified}
    before returning. *)

val cluster : Graph.t -> t -> int -> Dijkstra.tree
(** [cluster g t w] is the shortest-path tree of [C_A(w)] rooted at [w]
    (restricted Dijkstra). The tree's [order] lists the cluster members;
    the cluster of a center is empty. The tree owns [n]-sized arrays: the
    schemes read clusters as [Substrate.cluster]'s cluster-sized records,
    and this is the reference those are tested against. *)

val cluster_sizes : ?pool:Pool.t -> Graph.t -> t -> int array -> int array
(** [cluster_sizes g t sources] is [|C_A(w)|] for each listed [w], the
    restricted searches fanned out over [pool] (default {!Pool.default})
    with one reusable workspace per domain. *)

val bunches : ?pool:Pool.t -> Graph.t -> t -> int array array
(** [bunches g t] is [B_A(v)] for every [v], obtained by inverting all
    clusters (total work proportional to the total cluster size; the
    cluster searches run on [pool], the inversion is serial and the result
    is identical to a serial run). The reference [Substrate.bunches] is
    tested against. *)

val max_cluster_size : ?pool:Pool.t -> Graph.t -> t -> int
