open Cr_graph

(** Shortest-path routing on trees (paper Lemma 3, after Thorup–Zwick and
    Fraigniaud–Gavoille).

    A tree is a subgraph of the host graph given by a root and parent
    pointers (typically a shortest-path tree or a cluster tree). Two schemes
    are provided over the same preprocessed structure:

    - the {e heavy-light labeled} scheme: each vertex keeps O(1) words
      (its DFS interval, parent port, heavy-child interval and port) and the
      destination label carries one entry per light edge on the root-to-
      destination path — O(log n) entries;
    - the {e interval} scheme: each vertex keeps one interval per child and
      the label is a single DFS number.

    Both route on the unique tree path. The labeled scheme is the one the
    paper's space bounds assume; the interval scheme cross-validates it.

    Members are numbered in heavy-first preorder (children by subtree size,
    larger first, ties to the smaller vertex id), so a member's number is
    its DFS number, its subtree is the interval from it to its subtree's
    last number, and its heavy child is the next number. A tree is a few
    flat arrays over these numbers: one stride-4 int record per member
    (subtree end, port toward the parent, port toward the heavy child, the
    parent's port toward the member), the parent, depth and parent-edge
    weight arrays, and one int array per label. The other children's
    intervals are read off their own records, so neither scheme stores a
    per-child table. *)

type t

type label

(** {1 Construction} *)

val build :
  Graph.t -> root:int -> members:int array -> parent:(int -> int) -> t
(** [build g ~root ~members ~parent] preprocesses the tree whose vertex set
    is [members] (which must contain [root]) and whose edges are
    [(v, parent v)] for non-root members. Every tree edge must exist in [g].
    @raise Invalid_argument on a malformed tree. *)

val of_tree : Graph.t -> Dijkstra.tree -> t
(** [of_tree g t] builds routing for a Dijkstra tree (spanning or
    restricted): members are [t.order], parents are [t.parent]. *)

(** {1 Accessors} *)

val root : t -> int

val members : t -> int array
(** [members t] is the member set in heavy-first preorder, the root
    first. *)

val mem : t -> int -> bool

val label : t -> int -> label
(** [label t v] is the routing label of member [v].
    @raise Not_found if [v] is not a member. *)

val label_words : label -> int
(** Size of a label in O(log n)-bit words: 1 + 4 per light edge on the
    root path. *)

val encode_label : t -> label -> bytes * int
(** [encode_label t l] is a compact bit-level serialization of [l] and its
    exact size in bits: DFS fields use [ceil(log2 k)] bits for a [k]-member
    tree, ports use the tree's port width, and the light-entry count is
    Elias-gamma coded. Grounds the paper's [o(log^2 n)]-bit label claims
    (Lemma 3) in a real encoding. *)

val decode_label : t -> bytes -> label
(** Inverse of {!encode_label} (for the same tree). *)

val label_bits : t -> int -> int
(** [label_bits t v] is the encoded size of [v]'s label in bits. *)

val table_words : t -> int -> int
(** [table_words t v] is the heavy-light local table size at member [v], in
    words (a constant). *)

val interval_table_words : t -> int -> int
(** Local table size of the interval variant at [v]: linear in the number of
    tree children. *)

val depth : t -> int -> int
(** Hop depth of member [v] below the root. *)

val tree_dist : t -> int -> int -> float
(** [tree_dist t u v] is the length of the unique tree path between members
    [u] and [v] (weights from the host graph). *)

(** {1 Routing} *)

val step : t -> at:int -> label -> [ `Deliver | `Forward of int ]
(** One heavy-light routing decision at member [at] toward the label's
    vertex: deliver here, or forward through the returned port. Decisions
    read [at]'s stride-4 record and the subtree end of its heavy child
    (the next record), found through the tree's vertex index (a
    {!Compiled.Intmap}), and the label. *)

val step_interval : t -> at:int -> label -> [ `Deliver | `Forward of int ]
(** Same decision under the interval scheme. *)
