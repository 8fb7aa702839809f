open Cr_graph
open Cr_routing

(** The paper's second routing technique (Lemma 8).

    Given a partition [U = {U_1 .. U_q}] of [V] such that every vicinity
    [B(u, q~)] contains a vertex of every part, and a partition
    [W = {W_1 .. W_q}] of a destination set [W ⊆ V], route from any vertex
    of [U_i] to any vertex of [W_i] on a [(1+eps)]-stretch path.

    Each [u ∈ U_i] stores one sequence per destination [w ∈ W_i]: two
    initial edge steps followed by {e subsequences} with doubling progress
    thresholds [2^k / b] (in units of the minimum distance), capped at [2b]
    entries each — so a sequence has [O((1/eps) log D)] entries. A sequence
    either reaches [w] or ends at a nearby vertex of [U_i], which re-injects
    its own stored sequence (Claim 9 guarantees strict progress), so only
    [O~((1/eps) (log D) |W|/q + q)] words are stored per vertex. *)

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
  dests:int array array ->
  t
(** [preprocess g ~vicinities ~parts ~part_of ~dests] builds the sequences
    for every pair in [U_i x W_i]. [dests] must have the same length as
    [parts]. [eps] defaults to 0.5.

    [mode] (default [`Eager]) picks the sequence store. [`Eager] is the
    reference: every pair's sequence precomputed and kept, Theta(sum_i
    |U_i| |W_i|) memory — fine at experimental sizes, quadratic death past
    ~10^5. [`Lazy] is the on-demand store Lemma 7 uses too: nothing is
    precomputed, a sequence is built on first use from the destination's
    shortest-path tree and cached packed as int32 under a FIFO cap.
    Unlike Lemma 7's, this store keeps the trees too, one per destination
    (the destination sets are small), as int32 parent arrays with distances re-derived exactly
    along the parent chain, under a recency-evicted cap of [4 n] bytes
    per tree times a fixed tree count; the first miss for a destination
    runs its one Dijkstra, later misses read the resident tree. Every
    routing decision is bit-identical between the two modes — cache
    state never changes an answer — which the rt-scale equivalence tests
    pin. Lazy [table_words]/[breakdown] count only the resident vicinity
    entries.
    @raise Invalid_argument if [eps] is not finite and positive, if [g]
    is disconnected, or if some vicinity misses some part (the Lemma's
    hitting hypothesis). *)

val initial_header : t -> src:int -> dst:int -> header
(** Reads the sequence stored at [src ∈ U_i] for [dst ∈ W_i].
    @raise Not_found if no sequence is stored for the pair. *)

val step : t -> at:int -> header -> header Port_model.decision

val header_words : header -> int

val header_bits : t -> header -> int
(** Exact bit size of the header under the natural encoding — the Lemma 8
    headers are O((1/eps) log(nD)) bits. *)

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

val max_sequence_hops : t -> int
(** Longest stored sequence, in hops — the O((1/eps) log D) quantity. On a
    lazy store this is the longest sequence {e built so far} (0 before any
    query). *)

val breakdown : t -> (string * int) list
(** Aggregate space split: ["vicinities"], ["sequences"]. *)

(** {1 Snapshot form} *)

type frozen
(** {!t} with the graph handle and the vicinity family dropped (both
    supplied again at {!thaw}). A lazy store freezes to its decision
    inputs (destination grouping, part map, minimum edge weight); the
    caches restart empty, which never changes an answer. *)

val freeze : t -> frozen

val thaw : graph:Graph.t -> vicinities:Vicinity.t array -> frozen -> t
(** [vicinities] must be the same family the instance was built with. *)

(** {1 Testing} *)

module For_testing : sig
  val set_caps : t -> pairs:int -> trees:int -> unit
  (** [set_caps t ~pairs ~trees] lowers a lazy store's pair-cache and
      tree-cache caps, so a short query stream exercises eviction. Call it
      before the first route: eviction removes one entry per insertion.
      A no-op on an eager store.
      @raise Invalid_argument if a cap is below 1. *)
end
