(** Indexed binary min-heap over integer keys in [0, capacity).

    Each key carries a [float] priority. Supports the decrease-key operation
    needed by Dijkstra's algorithm. Ties between equal priorities are broken
    by the smaller key, so heap extraction order is deterministic — this is
    load-bearing for the [(distance, id)] tie-breaking of vertex vicinities
    (paper Section 2). *)

type t

val create : int -> t
(** [create capacity] is an empty heap accepting keys in [0, capacity). *)

val is_empty : t -> bool

val size : t -> int

val mem : t -> int -> bool
(** [mem h k] is [true] iff key [k] is currently in the heap. *)

val priority : t -> int -> float
(** [priority h k] is the current priority of [k].
    @raise Invalid_argument if [k] is not in the heap. *)

val insert : t -> int -> float -> unit
(** [insert h k p] inserts key [k] with priority [p].
    @raise Invalid_argument if [k] is already present or out of range. *)

val decrease : t -> int -> float -> unit
(** [decrease h k p] lowers the priority of [k] to [p].
    @raise Invalid_argument if [k] is absent or [p] is larger than the
    current priority. *)

val insert_or_decrease : t -> int -> float -> unit
(** [insert_or_decrease h k p] inserts [k], or lowers its priority if [p] is
    smaller than the current one; otherwise does nothing. *)

val insert_or_decrease_from : t -> int -> float array -> unit
(** [insert_or_decrease_from h k prio] is [insert_or_decrease h k prio.(k)].
    No float crosses the call, so it allocates nothing even where the call
    is not inlined (a build with [-opaque] inlines nothing across modules):
    a search that keeps each key's priority in its own array relaxes
    through it. *)

val peek_min : t -> (int * float) option
(** [peek_min h] is the pair [pop_min] would return, without removing it. *)

val clear : t -> unit
(** [clear h] empties the heap in time proportional to its current size,
    leaving the capacity intact. Lets a search that stopped early (e.g. a
    truncated Dijkstra) hand the heap back to a reusable workspace. *)

val pop_min : t -> (int * float) option
(** [pop_min h] removes and returns the (key, priority) pair with the least
    priority, breaking priority ties by the smaller key. *)

val pop_key : t -> int
(** [pop_key h] removes the key [pop_min] would and returns it alone, or
    [-1] when [h] is empty. It allocates nothing; a search that keeps each
    key's priority in its own array reads it there. *)
