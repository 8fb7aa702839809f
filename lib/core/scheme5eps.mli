open Cr_graph
open Cr_routing

(** Theorem 11: the [(5 + eps)]-stretch labeled routing scheme for weighted
    graphs with [O~((1/eps) n^(1/3) log D)]-word tables — the paper's
    headline result, breaking the [sqrt n] space barrier for stretch below 7.

    Ingredients (all with [q = n^(1/3)]): vicinities [B(u, q~)]; a Lemma 4
    center set [A] of size [O~(n^(2/3))] with clusters of size [O(n^(1/3))]
    and their tree-routing structures (each center stores its members'
    labels); a Lemma 6 coloring with [q] colors; an arbitrary partition [W]
    of [A] into [q] groups of [O~(n^(1/3))] centers; and Lemma 8 routing
    from each color class [U_i] to its center group [W_i].

    Routing [u -> v]: direct inside [B(u, q~)]; inside the cluster of [u] by
    its own tree; otherwise chase the color-[alpha(p_A(v))] representative,
    ride Lemma 8 to [p_A(v)], hop the first edge toward [v], and finish on
    the cluster tree of that neighbor. *)

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
(** Builds the scheme ([eps] defaults to 0.5; [center_target] overrides the
    Lemma 4 target, default [n^(2/3)]). [substrate] shares vicinities,
    center samples, cluster trees and bunches with other schemes on the
    same handle.

    [mode] (default [`Auto]) picks the substrate representation. [`Eager]
    is the reference: every cluster tree, member label, color
    representative and Lemma 8 sequence precomputed — quadratic death past
    ~10^5 vertices. [`Lazy] keeps the same centers, coloring and first
    edges but builds cluster trees and Lemma 8 sequences on first use
    (FIFO-capped, mutex-guarded caches safe under the pool-parallel batch
    engine), resolves color representatives by scanning the vicinity on
    demand, and reads first edges off the multi-source center forest.
    Every routing decision is bit-identical between the two modes — the
    rt-scale equivalence tests pin this. [`Auto] resolves to [`Lazy] past
    [CR_RT_LAZY_N] vertices (default 10^4). Lazy table accounting counts
    only resident (vicinity) entries.
    @raise Invalid_argument if [g] is disconnected or the coloring is
    infeasible. *)

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
(** The proven guarantee [(5 + 3 eps, 0)]. *)

val space_breakdown : t -> (string * int) list
(** Whole-network table space split by component. *)

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

(** {1 Testing} *)

module For_testing : sig
  val set_caps : t -> pairs:int -> trees:int -> cluster_trees:int -> unit
  (** Lowers a lazy instance's cache caps — the Lemma 8 pair and
      destination-tree caches (see {!Seq_routing2.For_testing.set_caps})
      and the cluster-tree cache — so a short query stream exercises
      eviction. Call it before the first route. A no-op on an eager
      instance.
      @raise Invalid_argument if a cap is below 1. *)
end
