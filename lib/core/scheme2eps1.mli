open Cr_graph
open Cr_routing

(** Theorem 10: the [(2 + eps, 1)]-stretch labeled routing scheme for
    unweighted graphs, with [O~((1/eps) n^(2/3))]-word tables.

    Ingredients (all with [q = n^(1/3)]): vicinities [B(u, q~)]; a Lemma 4
    center set [A] of size [O~(n^(2/3))] with clusters [C_A(w)] of size
    [O(n^(1/3))] and their tree-routing structures; global shortest-path
    trees [T(a)] for every [a ∈ A]; a per-source map to the best
    intersection witness [w ∈ B(u, q~) ∩ B_A(v)]; and Lemma 7 over the color
    classes of a Lemma 6 coloring.

    Routing: exact when the source vicinity intersects the destination
    bunch (the witness lies on a shortest path); otherwise compare
    [d(v, p_A(v))] against the distance to the color-[c(v)] representative
    and either ride the global tree [T(p_A(v))] (at most [2d + 1]) or chase
    the representative and finish with Lemma 7 (at most [(2 + 2 eps) d]). *)

type t

val preprocess :
  ?substrate:Substrate.t ->
  ?eps:float ->
  ?vicinity_factor:float ->
  ?center_target:int ->
  ?mode:[ `Auto | `Eager | `Lazy ] ->
  seed:int ->
  Graph.t ->
  t
(** Builds the scheme. [center_target] overrides the Lemma 4 sampling
    target (default [n^(2/3)]). [mode] (default [`Auto]) picks the Lemma 7
    sequence store: [`Eager] precomputes every same-class pair, [`Lazy]
    builds sequences on first use — decisions are bit-identical between
    the two; [`Auto] resolves to [`Lazy] past [CR_RT_LAZY_N] vertices
    (default 10^4). The witness tables and global trees are eager in both
    modes. [substrate] shares vicinities, center
    samples, cluster trees and bunches with other schemes on the same
    handle.
    @raise Invalid_argument if [g] is disconnected, weighted, or the
    coloring is infeasible. *)

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
(** The proven guarantee [(2 + 2 eps, 1)]. *)

val centers : t -> int array
(** The sampled set [A]. *)

val space_breakdown : t -> (string * int) list
(** Whole-network table space split by component (vicinities, sequences,
    tree records, member labels, witnesses, representatives). *)

(** {1 Snapshot form} *)

type frozen
(** {!t} with the graph handle dropped and the vicinity planes (their
    payloads as {!Snapshot} blobs) and embedded sub-states frozen. *)

val freeze : Snapshot.sink -> t -> frozen

val thaw : Snapshot.source -> graph:Graph.t -> frozen -> t
(** Rebuild against the blobs of a loaded snapshot. [graph] must be the
    graph the snapshot was built on (callers validate via
    {!Snapshot.check} first). Answers are bit-identical to the frozen
    instance's. *)

(** {1 Test access} *)

module For_testing : sig
  val witness : t -> src:int -> int -> int option
  (** [witness t ~src v] is the intersection witness [src] stores for [v]:
      the [w ∈ B(src, q~) ∩ B_A(v)] minimizing [(d(src, w) + d(w, v), w)],
      or [None] when the two sets are disjoint. *)

  val vicinities : t -> Vicinity.t array
  (** The vicinity family [B(u, q~)]. *)

  val cluster_tree : t -> int -> Tree_routing.t option
  (** [cluster_tree t w] is the tree over [C_A(w)], or [None] when the
      cluster is empty. *)
end
