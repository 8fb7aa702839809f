open Cr_graph
open Cr_routing

(** Theorems 13 and 15: the generalized [(3 -+ 2/l + eps, 2)]-stretch
    routing schemes for unweighted graphs, almost matching the
    Patrascu–Thorup–Roditty distance-oracle tradeoff.

    Parameterized by [l > 1] and the variant sign:
    - [`Minus]: stretch [(3 - 2/l + eps, 2)], tables
      [O~(l (1/eps) n^(l/(2l-1)))] (Theorem 13; [l = 3] gives the
      [(2 1/3 + eps, 2)] row of Table 1);
    - [`Plus]: stretch [(3 + 2/l + eps, 2)], tables
      [O~(l (1/eps) n^(l/(2l+1)))] (Theorem 15; [l = 2] gives the
      [(4 + eps, 2)] row).

    The construction stacks [l+1] levels of vicinities [B_i(u) = B(u, q~^i)]
    and Lemma 4 center sets [L_i] with clusters of size [O(q^i)], checks the
    level-wise intersections [B_i(u) ∩ B_{L_(l-i)}(v)] (exact when they
    hit), and otherwise picks the level [j] minimizing the radius/center
    distance sum of Lemma 12/14 and rides a per-level Lemma 8 instance to
    the destination's level-[k] center. *)

type variant = [ `Minus | `Plus ]

type t

val preprocess :
  ?substrate:Substrate.t ->
  ?eps:float ->
  ?vicinity_factor:float ->
  seed:int ->
  variant:variant ->
  ell:int ->
  Graph.t ->
  t
(** @raise Invalid_argument if [ell < 2], the graph is disconnected or
    weighted, or a coloring is infeasible. [substrate] shares the
    per-level vicinity families, center samples and cluster trees with
    other schemes on the same handle. *)

val route :
  ?faults:Fault.plan ->
  ?record_path:bool ->
  ?detect_loops:bool ->
  t ->
  src:int ->
  dst:int ->
  Port_model.outcome
(** One message through the scheme's tables; the simulator knobs default
    on (see {!Port_model.run}). *)

val instance : t -> Scheme.instance

val stretch_bound : t -> float * float
(** The proven guarantee: [`Minus] gives
    [(3 + 3 eps - (2 + eps)/l, 2)]; [`Plus] gives [(3 + 2/l + 4 eps, 2)]. *)

val eps : t -> float

val variant : t -> variant

val ell : t -> int

(** {1 Snapshot form} *)

type frozen
(** {!t} with the graph handle dropped and the level-ell vicinity family
    (its blocks as {!Snapshot} blobs; the lower levels are prefix views
    of it, rebuilt on thaw) and embedded sub-states frozen. *)

val freeze : Snapshot.sink -> t -> frozen

val thaw : Snapshot.source -> graph:Graph.t -> frozen -> t
(** Rebuild against the blobs of a loaded snapshot. [graph] must be the
    graph the snapshot was built on (callers validate via
    {!Snapshot.check} first). Answers are bit-identical to the frozen
    instance's. *)

(** {1 Test access} *)

module For_testing : sig
  val witness : t -> src:int -> int -> (int * int) option
  (** [witness t ~src v] is the stored [(i, w)]: the level [i < ell] and
      the [w ∈ B_i(src) ∩ B_{L_(ell-i)}(v)] minimizing
      [(d(src, w) + d(w, v), w)] over all levels, the lowest level on a
      tie; [None] when no level intersects. *)

  val vicinities : t -> Vicinity.t array
  (** The level-[ell] family [B_ell(u)]; [B_i(u)] is its prefix of size
      [(sizes t).(i)]. *)

  val sizes : t -> int array
  (** [l_i], the vicinity size of level [i], for [i = 0..ell]. *)

  val cluster_tree : t -> level:int -> int -> Tree_routing.t option
  (** [cluster_tree t ~level w] is the tree over [C_{L_level}(w)], or
      [None] when the cluster is empty. *)
end
