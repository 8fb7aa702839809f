(** Classified batched deltas and dirty-region tests.

    A {!t} holds the new graph of one {!Graph.apply_delta} batch and the
    batch's edges classified against the old one (it keeps no reference to
    the old graph), with the machinery the incremental repair path needs:
    an exact test for whether a cached shortest-path tree survives the
    delta, a test deciding the same for a truncated ball (a vicinity) from
    the ball's own stored distances, and a port-patching helper for
    surviving trees. *)

type t

val classify : Graph.t -> Graph.delta_op list -> t
(** [classify g ops] applies the batch (see {!Graph.apply_delta} for the
    validation rules) and classifies it: removals and weight increases act
    like deletions, inserts and weight decreases like insertions, an
    equal-weight reweight like nothing at all. Weights are compared and
    recorded as the graphs store them: on a graph with float32 weights a
    reweight whose value rounds to the old weight is equal-weight, and
    every recorded weight is the rounded one a search over the graph
    sums. *)

val new_graph : t -> Graph.t
(** The graph after the batch; [new_graph (classify g ops)] is
    [Graph.apply_delta g ops]. *)

val ops : t -> Graph.delta_op list
val structural : t -> bool
(** Whether the batch contains any [Insert] or [Remove] (a pure reweight
    batch never renumbers a port). *)

val ports_shifted : t -> int -> bool
(** [ports_shifted d u]: whether [u]'s port numbering may differ between
    the old and new graph — true exactly for endpoints of structural ops
    (every other vertex keeps its slice verbatim). *)

val removals : t -> (int * int * float) list
(** Removed or weight-increased edges, with their old stored weight. *)

val inserts : t -> (int * int * float) list
(** Inserted or weight-decreased edges, with their new stored weight. *)

val is_empty : t -> bool
(** No distance can change and no port can shift (e.g. an equal-weight
    reweight batch). *)

val ball_affected : t -> dist:(int -> float) -> bound:float -> bool
(** [ball_affected d ~dist ~bound]: whether the delta can change the
    truncated ball [B(u, l)] (the [l] vertices nearest to [u] under
    [(distance, id)] order: members, distances, first ports, radius).
    [dist x] is [x]'s stored distance from [u] for a member and [infinity]
    otherwise; [bound] is the farthest member's distance, or [infinity]
    when the ball holds its whole component (fewer than [l] members).

    The test holds iff some delta edge [(x, y, w)] satisfies
    [dist x + w <= min (dist y) bound] in either orientation, where [w] is
    the old stored weight for removals and increases and the new stored
    weight for inserts and decreases. [false] guarantees that a fresh search on the
    new graph settles the same members at the same distances, through the
    same parents (so the same first links; ports may still shift, see
    {!ports_shifted}), with the same radius. Proof sketch:
    - a removal changes the ball only if it is tight for a member
      ([dist x + w = dist y]: it set a distance or a parent) or realises a
      tie at the boundary ([= bound] for an excluded [y], which fixes the
      radius);
    - an improving or tying path made by inserts leaves the old ball
      through its first new edge, from a member [x], with
      [dist x + w <= dist y] (or [<= bound] when [y] is not a member);
    - ties count ([<=]) because they flip parents, and so first ports;
    - a whole-component ball needs [bound = infinity], since an insert
      may join a second component. *)

val spt_affected : t -> Dijkstra.tree -> bool
(** Exact keep/drop test for a full shortest-path tree: [false] guarantees
    the tree's distances, parents and settle order are bit-identical on the
    new graph (ports may still shift; see {!patch_tree}). *)

val patch_tree : Graph.t -> Dijkstra.tree -> Dijkstra.tree
(** [patch_tree g' t] relabels a kept tree's [parent_port]/[first_port]
    arrays against the new graph [g'] (fresh arrays; [t] is not mutated).
    Only sound when [spt_affected] returned [false] for [t]. *)

val random : ?seed:int -> ?size:int -> Graph.t -> Graph.delta_op list
(** [random ~seed ~size g] is a deterministic pseudo-random batch of at
    most [size] ops: a mix of inserts, removals and (on weighted graphs)
    reweights. Removals that would split a connected component are
    rejected, so a connected graph stays connected and the repaired
    catalog can be rebuilt on the result. May return fewer than [size]
    ops on tiny or saturated graphs. *)
