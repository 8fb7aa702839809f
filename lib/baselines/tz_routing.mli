open Cr_graph
open Cr_routing

(** The Thorup–Zwick [(4k-5)]-stretch compact routing scheme (SPAA'01) —
    the baseline the paper improves on ([k = 2]: stretch 3 with
    [O~(n^(1/2))] tables; [k = 3]: stretch 7 with [O~(n^(1/3))] tables).

    Every vertex [w] owns the shortest-path tree of its cluster [C(w)];
    members store the O(1)-word tree-routing record and a bunch hash.
    Additionally — the [4k-5] refinement — every vertex [u ∉ A_1] stores the
    tree labels of its own cluster's members, so it can route optimally
    inside [C(u)]. The label of [v] carries [p_i(v)] and [v]'s label in
    [T(p_i(v))] for every level; routing rides the tree of the lowest-level
    center whose cluster contains the source. *)

type t

type label = { vertex : int; pivots : (int * Tree_routing.label) array }
(** The TZ label: for each level [i], [p_i(v)] and [v]'s routing label in
    the cluster tree [T(p_i(v))]. *)

val preprocess :
  ?substrate:Substrate.t ->
  ?a1_target:int ->
  ?pool:Pool.t ->
  seed:int ->
  Graph.t ->
  k:int ->
  t
(** Cluster searches, tree construction and home-label tables fan out over
    [pool] (default [Pool.default ()]); the resulting scheme is identical
    to a serial build. The whole state is memoized on [substrate]
    ({!Substrate.scheme_state}) by [(seed, k, a1_target)], with an absent
    [a1_target] resolved to {!Tz_hierarchy.default_a1_target} first: a
    second preprocess with that key on the handle returns the first one's
    state, physically. A miss shares the hierarchy's [A_1] center sample
    with other constructions on the handle.
    @raise Invalid_argument if [k < 2], the graph is disconnected, or
    [substrate] is bound to another graph. *)

val route :
  ?faults:Fault.plan ->
  ?record_path:bool ->
  ?detect_loops:bool ->
  t ->
  src:int ->
  dst:int ->
  Port_model.outcome
(** One message through the tables; the simulator knobs default on (see
    {!Port_model.run}). *)

val instance : t -> Scheme.instance

val stretch_bound : t -> float * float
(** [(4k - 5, 0)]. *)

val k : t -> int

val hierarchy : t -> Tz_hierarchy.t

(** {1 Introspection — used by the paper's Theorem 16, which extends this
    scheme} *)

val label_of : t -> int -> label

val tree : t -> int -> Tree_routing.t option
(** [tree t w] is the routing structure of [T(w)] ([None] iff [C(w) = ∅]). *)

val bunch_mem : t -> int -> int -> bool
(** [bunch_mem t u w] is [u ∈ C(w)] (equivalently [w ∈ B(u)]), decided from
    [u]'s local bunch set (a {!Compiled.Bitset}). *)

val home_label : t -> int -> int -> Tree_routing.label option
(** [home_label t u v] is [v]'s label in [T(u)] if [u] stores it (the
    [4k-5] refinement: [u ∉ A_1] and [v ∈ C(u)]). *)

val table_words : t -> int array

val base_label_words : t -> int array

val label_bits : t -> int -> int
(** [label_bits t v] is the exact size of [v]'s label under the bit-level
    encoding (vertex and pivot ids at [ceil(log2 n)] bits each plus the
    per-tree encoded routing labels) — the scheme's [o(k log^2 n)]-bit
    label claim, measured. *)

(** {1 Snapshot form} *)

type frozen
(** {!t} with the graph handle dropped; everything else — hierarchy
    arrays, tree records, bunch sets and home-label tables — is data. *)

val freeze : Snapshot.sink -> t -> frozen

val thaw : Snapshot.source -> graph:Graph.t -> frozen -> t
