open Cr_graph

(** The Thorup–Zwick center hierarchy [A_0 ⊇ A_1 ⊇ ... ⊇ A_{k-1}], [A_k = ∅],
    shared by the (4k-5) routing scheme, the (2k-1) distance oracle, and the
    paper's Theorem 16.

    [p_i(v)] is the nearest [A_i]-vertex under the TZ tie rule (if
    [d(v, A_i) = d(v, A_{i+1})] then [p_i(v) = p_{i+1}(v)]), which guarantees
    [v ∈ C(p_i(v))] for every level. *)

type t = {
  k : int;
  in_set : bool array array;  (** [in_set.(i).(v)]: is [v ∈ A_i]? [i < k]. *)
  level : int array;          (** largest [i] with [v ∈ A_i]. *)
  dist : float array array;   (** [dist.(i).(v) = d(v, A_i)]; [dist.(k)] is all-infinity. *)
  p : int array array;        (** [p.(i).(v) = p_i(v)] under the tie rule. *)
}

val default_a1_target : n:int -> k:int -> int
(** The [A_1] sample size {!build} aims for when given no [a1_target]:
    [n^(1-1/k)], rounded, at least 1. *)

val build :
  seed:int ->
  ?a1_target:int ->
  ?substrate:Cr_routing.Substrate.t ->
  ?pool:Cr_routing.Pool.t ->
  Graph.t ->
  k:int ->
  t
(** [build ~seed g ~k] samples the hierarchy: [A_1] by Lemma 4 (target
    [a1_target], default {!default_a1_target}) so level-0 clusters are
    [O(n^(1/k))]-sized — the (4k-5) refinement — and each further level by
    independent [n^(-1/k)] sampling, forcing [A_{k-1}] nonempty. The
    per-level distance searches run on [pool]; all random sampling stays
    on the calling domain, so the result is independent of the pool width.
    [substrate] shares the [A_1] center sample with other constructions on
    the same handle.
    @raise Invalid_argument if [k < 2] or [g] is disconnected. *)

val cluster : Graph.t -> t -> int -> Dijkstra.tree
(** [cluster g t w] is the TZ cluster of [w] at [w]'s own level:
    [{ v | d(w,v) < d(v, A_{level(w)+1}) }], with its shortest-path tree. *)

val with_cluster :
  Dijkstra.workspace -> Graph.t -> t -> int -> (Dijkstra.tree -> 'a) -> 'a
(** [with_cluster ws g t w f] is [cluster g t w] computed in [ws]; the tree
    borrows the workspace arrays exactly as in [Dijkstra.with_restricted]. *)

val bunches : ?pool:Cr_routing.Pool.t -> Graph.t -> t -> (int * float) list array
(** [bunches g t].(v) lists [(w, d(w,v))] for every [w] with [v ∈ C(w)] —
    the TZ bunch of [v], with distances. Cluster searches fan out over
    [pool]; the result is identical to a serial run. *)
