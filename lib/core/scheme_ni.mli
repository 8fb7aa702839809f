open Cr_graph
open Cr_routing

(** The name-independent [(3 + eps)]-stretch scheme (Section 4 remark).

    The warm-up scheme needs only [c(v)] from the destination's label; if
    the coloring is produced by a salted hash of the vertex name — as in
    Abraham et al., whose hash the paper points to — any source can compute
    [c(v)] from the name alone and the scheme becomes {e name-independent}:
    labels vanish. The salt is re-drawn until the hash satisfies both
    Lemma 6 conditions (verified, like every randomized construction here),
    which a random coloring does whp. Tables stay
    [O~((1/eps) sqrt n)] words. *)

type t

val preprocess :
  ?substrate:Substrate.t ->
  ?eps:float ->
  ?vicinity_factor:float ->
  seed:int ->
  Graph.t ->
  t
(** @raise Invalid_argument if [g] is disconnected or no salt satisfying
    Lemma 6 is found. [substrate] shares vicinity families and
    shortest-path trees with other schemes built on the same handle. *)

val color_of_name : t -> int -> int
(** [color_of_name t v] is the hash color any vertex computes for name [v]
    — the only destination information routing uses. *)

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
(** The instance reports zero label words: the scheme is name-independent. *)

val stretch_bound : t -> float * float
(** [(3 + 2 eps, 0)]. *)

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
