(** Shared preprocessing substrate cache.

    Every scheme in the catalog is assembled from the same few substrates
    over a given graph — shortest-path trees ([Dijkstra.spt]), vicinity
    families [B(u, l)] ([Vicinity.compute_all]), center samples
    ([Centers.sample]) and their clusters [C_A(w)] — and
    some schemes embed whole states of others (Theorem 16 stores the
    Thorup–Zwick scheme, {!scheme_state}). The paper
    builds its schemes out of exactly these shared objects (Section 2,
    Lemmas 4/7/8), so deduplicating them across scheme constructions is
    faithful by construction: a substrate is a pure function of the graph
    and its key (root vertex, vicinity size [l], sampling [(seed, target)]),
    so a cached result is {e the} result, bit for bit.

    A [Substrate.t] is a per-graph memo handle. Thread one through the
    scheme [preprocess] entry points (and [Catalog] builds) and each
    distinct substrate is computed once per sweep; omit it and each build
    creates a private handle, which still deduplicates within that build.
    Cached structures are read-only after construction, so physical sharing
    between scheme instances is safe.

    {b Domains.} The handle is not synchronized: consult it only from the
    domain that owns it (scheme preprocessing orchestrates from one domain;
    the [Pool]-parallel paths inside [Vicinity.compute_all] etc. keep their
    own per-domain workspaces and never touch the handle).

    {b Accounting.} Every lookup bumps a per-handle hit or miss counter
    ({!stats}), and mirrors into the process-wide
    [Telemetry.counters.substrate_hits]/[substrate_misses] shards when
    telemetry is enabled. *)

open Cr_graph

type t

val create : Graph.t -> t
(** A fresh, empty handle bound to [g]. *)

val graph : t -> Graph.t
(** The graph the handle is bound to. *)

val for_graph : t option -> Graph.t -> t
(** [for_graph sub g] is [sub]'s handle when given, after checking it is
    bound to {e physically} the same graph, or a fresh handle otherwise —
    the uniform entry for [?substrate] parameters.
    @raise Invalid_argument if [sub] was created for a different graph. *)

(** {1 Cached substrates} *)

val spt : t -> int -> Dijkstra.tree
(** Full shortest-path tree rooted at a vertex, keyed by root: equal to
    [Dijkstra.spt], searched in the handle's one scratch workspace. *)

val spt_tree : t -> int -> Tree_routing.t
(** [Tree_routing.of_tree] of {!spt}, keyed by root. *)

val vicinities : ?pool:Pool.t -> t -> int -> Vicinity.t array
(** The vicinity family [B(u, l)] for all [u], keyed by [l]. [pool] is
    used only on a miss; hits return the cached family regardless (the
    result is pool-independent by the [Pool] determinism contract). *)

val centers : t -> seed:int -> target:int -> Centers.t
(** [Centers.sample], keyed by [(seed, target)]. *)

(** The cluster [C_A(w) = { v | d(w,v) < d(v,A) }] of [w] for a center
    set [A], with its shortest-path tree rooted at [w]. The record holds
    O(|C_A(w)|) words: no [n]-sized array. *)
type cluster = {
  members : int array;
      (** the members in [(dist, id)] settle order, [w] first; empty when
          [w] is a center *)
  dists : float array;  (** [dists.(j) = d(w, members.(j))] *)
  tree : Tree_routing.t option;
      (** [Tree_routing.of_tree] of the cluster's shortest-path tree;
          [None] when the cluster is empty *)
}

val cluster : t -> seed:int -> target:int -> int -> cluster
(** [cluster s ~seed ~target w] is [w]'s cluster for the sample
    [centers s ~seed ~target], keyed by [(seed, target, w)]: one restricted
    search ([Dijkstra.with_restricted], limit [d(., A)]) in the handle's
    scratch workspace yields the whole record. Its members and distances
    are [Centers.cluster]'s [order] and [dist] read at [order], bit for
    bit. *)

val bunches : t -> seed:int -> target:int -> int array array
(** [bunches s ~seed ~target].(v) is the bunch [B_A(v) = { w | v ∈
    C_A(w) }] in increasing [w], equal to [Centers.bunches] for
    {!centers}[ ~seed ~target]: the inversion of every [w]'s memoized
    {!cluster} members, each looked up (and counted) through {!cluster}.
    The bunches themselves are not memoized. *)

(** {1 Scheme states}

    One memo table for structures built by libraries above this one, whose
    types this module cannot name (the Thorup–Zwick state of
    [Tz_routing], which tz-k and rt-4km7-k share). A kind of structure is
    named by a [Type.Id.t] its library makes once; its key is a list of
    ints that, with the handle's graph, must fix the structure completely,
    as every other key here does. *)

val scheme_state : t -> 'a Type.Id.t -> int list -> (unit -> 'a) -> 'a
(** [scheme_state s id key build] is the structure of kind [id] under
    [key], built by [build] on a miss. The caller checks that [s] is bound
    to its graph ({!for_graph}) before the lookup. Counted under
    [scheme_state_*] in {!stats}; {!invalidate} drops every entry. *)

(** {1 The last build}

    One slot per handle holds the handle's most recent catalog build: a
    key naming it and a closure that freezes that build's state into a
    snapshot payload. [Catalog] fills it on every build made with the
    handle and takes it on a save of exactly that build, so saving right
    after building freezes the state the build made instead of running
    its preprocess again. The slot holds one build, never a table, so it
    pins at most one built state. It counts in no {!stats} field, and
    {!invalidate} empties the source handle's slot and never copies it. *)

type build_key = {
  codec : string;  (** the snapshot codec's id: a ["+res"] entry's base id *)
  seed : int;
  eps : float;  (** compared by its bits *)
}

val keep_build : t -> build_key -> (Snapshot.sink -> string) -> unit
(** Put a build in the slot, replacing what was there. *)

val drop_build : t -> unit
(** Empty the slot. *)

val take_build : t -> build_key -> (Snapshot.sink -> string) option
(** [Some freeze] when the slot holds [key], emptying the slot; [None],
    with the slot left as it was, otherwise. *)

(** {1 Delta invalidation} *)

type invalidation = {
  spt_reused : int;
  spt_dropped : int;
  spt_tree_reused : int;
  spt_tree_dropped : int;
  vicinity_reused : int;
  vicinity_dropped : int;
  centers_dropped : int;  (** center samples are never carried across *)
  cluster_dropped : int;  (** cluster records *)
  scheme_state_dropped : int;  (** scheme states are dropped on every delta *)
}

val invalidate : t -> Graph.delta_op list -> t * invalidation
(** [invalidate s ops] applies the batch to the handle's graph (see
    {!Graph.apply_delta}) and returns a fresh handle bound to the new
    graph, pre-seeded with every cached structure the delta provably
    cannot touch: shortest-path trees whose distances and parents are
    bit-identical on the new graph (port labels re-derived when the batch
    renumbered ports), their derived routing trees (re-extracted from the
    kept tree without re-running Dijkstra), and vicinities for which no
    delta edge is tight ({!Delta.ball_affected}: decided from the ball's
    own stored distances; a kept vicinity whose source had ports
    renumbered gets its first ports remapped). Dropped vicinities are
    recomputed eagerly, through one Dijkstra workspace per family, so the
    family array stays complete and one family. Center samples and their derivatives are dropped on every
    delta that can change a distance or a port, and scheme states on
    every delta (they hold the graph they were built on). Every carried
    structure is exactly what a fresh handle on the new graph would
    compute, so downstream scheme builds are bit-identical to an uncached
    build.
    The source handle's last-build slot is emptied, and the new handle's
    starts empty.
    Bumps [Telemetry.counters.substrate_reused_after_delta] /
    [substrate_dropped_after_delta] when telemetry is enabled.
    @raise Invalid_argument on an invalid batch (see {!Graph.apply_delta}). *)

val reused : invalidation -> int
(** Structures carried across the delta. *)

val dropped : invalidation -> int
(** Structures discarded (or eagerly recomputed) because of the delta. *)

val invalidation_rows : invalidation -> (string * int * int) list
(** [(category, reused, dropped)] rows, for reports. *)

(** {1 Accounting} *)

type stats = {
  spt_hits : int;
  spt_misses : int;
  spt_tree_hits : int;
  spt_tree_misses : int;
  vicinity_hits : int;
  vicinity_misses : int;
  centers_hits : int;
  centers_misses : int;
  cluster_hits : int;
  cluster_misses : int;
  scheme_state_hits : int;
  scheme_state_misses : int;
}

val stats : t -> stats
(** Snapshot of the handle's lookup counters. [cluster_*] covers
    {!cluster} lookups, the [n] that each {!bunches} call makes included;
    [scheme_state_*] {!scheme_state} lookups. *)

val hits : stats -> int
(** Total hits across all categories. *)

val misses : stats -> int
(** Total misses across all categories. *)

val stats_rows : stats -> (string * int * int) list
(** [(category, hits, misses)] rows in declaration order, for reports. *)
