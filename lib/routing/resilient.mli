(** Scheme-agnostic resilience wrapper.

    The paper's schemes are fault-oblivious: their tables are computed for a
    healthy network, and a single failed link on a chosen route strands the
    message. This wrapper layers a recovery protocol {e around} any
    {!Scheme.instance} without looking inside it, using only what a real
    deployment would have: the outcome of each routing attempt, local
    observability of failed incident links, and a precomputed spanning tree.

    Recovery ladder, applied only after the wrapped scheme fails to deliver:

    + {b Retry via escape hops.} The message is stuck at some vertex. Pick
      the live incident edge minimizing [weight + tree-distance to the
      destination], move one hop, and restart the wrapped scheme from there
      — up to [retries] times, never escaping back to a vertex that already
      stranded the message.
    + {b Spanning-tree–guided detour.} When retries are exhausted (or no
      live escape exists), run a depth-first walk over the surviving graph,
      visiting cheapest-[weight + tree-distance] neighbors first and
      backtracking when stuck. The walk carries its visited set and
      backtrack trail in the header, so it stays a legal local step function
      and delivers whenever the surviving graph still connects the message
      to its destination.

    The pure tree-routing fallback one might expect here does not work: a
    single failed tree edge cuts the unique tree path, and the paper's trees
    give a vertex no second option. The DFS detour keeps the tree as a
    {e potential} (distance-to-destination ordering) instead, which preserves
    completeness on the surviving graph at the cost of heavier headers —
    the honest price of fault-oblivious tables; see DESIGN.md.

    With no fault plan (or a plan that never fires) the wrapper is
    transparent: it returns the wrapped scheme's outcome bit-for-bit. *)

type t

val wrap : ?retries:int -> Scheme.instance -> t
(** [wrap inst] precomputes the spanning shortest-path tree used by escape
    scoring and the detour potential. [retries] (default 3) bounds the
    escape-hop restarts before falling back to the detour. *)

val retries : t -> int

val tree : t -> Tree_routing.t option
(** The detour tree — [None] only for an empty graph. *)

val route :
  ?faults:Fault.plan -> t -> src:int -> dst:int -> Port_model.outcome
(** Route with recovery. The outcome concatenates every attempted segment:
    [path], [length] and [hops] accumulate across the bare attempt, escape
    hops, restarts and the detour, so stretch computed from it prices the
    full degraded trajectory. [verdict] and [final] are the last segment's.
    Without [?faults] this is exactly [Scheme.route inst]. *)

val instance : t -> Scheme.instance
(** Catalog-compatible view. The name gains a ["+res"] suffix; per-vertex
    table sizes grow by the spanning-tree routing record
    ({!Tree_routing.table_words}); labels are unchanged. Its [route]
    ignores the two simulator knobs: every sub-route of the recovery
    ladder runs with path recording and loop detection on. *)
