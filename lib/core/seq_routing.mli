open Cr_graph
open Cr_routing

(** The paper's first routing technique (Lemma 7).

    Given a partition [U = {U_1 .. U_q}] of [V], route between any two
    vertices of the same part on a [(1+eps)]-stretch path. Each source
    stores, per destination in its part, a {e sequence} of at most
    [2 * ceil(2/eps)] temporary targets lying on a shortest path; the
    message chases the targets through vicinity routing (Lemma 2) and
    direct links, and — when the remaining progress would fall under the
    threshold [d(u,v) / b] — finishes on the shortest-path tree of a nearby
    hitting-set vertex.

    Tables: [O~( (1/eps) n/q + q )] words per vertex (vicinities of size
    [q~], one tree-routing record per hitting-set tree, and the sequences).
    Headers: the sequence plus at most one tree label. *)

type t

type header

val preprocess :
  ?substrate:Substrate.t ->
  ?eps:float ->
  ?mode:[ `Eager | `Lazy ] ->
  Graph.t ->
  vicinities:Vicinity.t array ->
  parts:int array array ->
  part_of:int array ->
  t
(** [preprocess g ~vicinities ~parts ~part_of] builds all sequences.
    [eps] defaults to 0.5. [vicinities] must be the [B(u, q~)] family the
    caller already computed (it is shared with the enclosing scheme); the
    hitting set is the greedy one of that family. [part_of.(v)] must be
    the index of the part containing [v], or [-1] for vertices outside
    the partition (they can relay but not originate).

    [mode] (default [`Eager]) picks the sequence store. [`Eager]
    precomputes every same-part pair's sequence — the reference, quadratic
    in part sizes. [`Lazy] is the on-demand store Lemma 8 uses too: a
    sequence is built on first use and cached packed as int32 under a
    FIFO cap. Unlike Lemma 8's, this store keeps no destination tree: a
    destination here is any vertex of the source's part, so each miss
    runs one Dijkstra from the destination, stopped once the source
    settles. The hitting set and its trees stay eager in both modes. Decisions are
    bit-identical across modes — cache state never changes an answer.
    Lazy [table_words]/[breakdown] count only the resident vicinity and
    tree-record entries.
    @raise Invalid_argument if [eps] is not finite and positive, or if
    [g] is disconnected. *)

val initial_header : t -> src:int -> dst:int -> header
(** Reads the sequence stored {e at [src]} for [dst]; both must belong to
    the same part. @raise Not_found if no sequence is stored. *)

val step : t -> at:int -> header -> header Port_model.decision
(** One local forwarding decision. *)

val header_words : header -> int

val header_bits : t -> header -> int
(** Exact bit size of the header under the natural encoding (hop tags,
    vertex ids, ports, plus the encoded tree label when the escape hatch is
    armed) — the Lemma 7 headers are O((1/eps) log n + log^2 n) bits. *)

val route :
  ?faults:Fault.plan ->
  ?record_path:bool ->
  ?detect_loops:bool ->
  t ->
  src:int ->
  dst:int ->
  Port_model.outcome
(** End-to-end simulation through the port model; the simulator knobs
    default on (see {!Port_model.run}). *)

val table_words : t -> int array
(** Per-vertex table size in words: vicinity entries + per-tree routing
    records + stored sequences (including stored tree labels). *)

val breakdown : t -> (string * int) list
(** Aggregate (whole-network) space split into components:
    ["vicinities"], ["tree-records"], ["sequences"]. *)

(** {1 Snapshot form} *)

type frozen
(** {!t} with the graph handle and the vicinity family dropped (both
    supplied again at {!thaw} so physical sharing with the enclosing
    scheme survives a snapshot round trip). A lazy sequence store keeps
    no state of its own: it is rebuilt from the hitting set with an empty
    cache, which never changes an answer. *)

val freeze : t -> frozen

val thaw : graph:Graph.t -> vicinities:Vicinity.t array -> frozen -> t
(** [vicinities] must be the same family the instance was built with
    (the enclosing scheme thaws it once and passes it down). *)

(** {1 Testing} *)

module For_testing : sig
  val set_pair_cap : t -> pairs:int -> unit
  (** [set_pair_cap t ~pairs] lowers a lazy store's pair-cache cap, so a
      short query stream exercises eviction. Call it before the first
      route: eviction removes one entry per insertion. A no-op on an
      eager store.
      @raise Invalid_argument if [pairs] is below 1. *)
end
