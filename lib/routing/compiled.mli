(** The containers the forwarding plane reads.

    Preprocessing grows its routing tables in [Hashtbl]s — convenient to
    fill, hostile to route through: every per-hop lookup chases buckets and
    boxes. Each scheme therefore builds its finished tables, once, at the
    end of its preprocess, into the flat sorted [int array] / [Bytes]
    structures here, resolved by binary search or direct indexing. Those
    are the only runtime form: an instance, and an instance thawed from a
    snapshot, routes over them as built, with no second copy and no
    compile pass. Each container picks its layout from its keys alone, so
    one table always compiles to the same bytes. A container answers
    exactly what the hashtable it was built from answers (the qcheck suite
    enforces this), and it never changes the space accounting: the word
    counts reported by the schemes are a property of the {e logical} table
    (entries of O(log n)-bit words), not of whichever physical container
    serves the lookup. *)

val bigarray_bytes : ('a, 'b, 'c) Bigarray.Array1.t -> int
(** Payload bytes of a Bigarray. [Obj.reachable_words] sees only the
    custom-block header of a Bigarray, not its out-of-heap payload — use
    this for honest plane-size accounting. *)

(** Immutable [int -> int] map with non-negative values.

    Two physical forms, chosen at build time from the keys alone: a
    {e direct} array when the key range is dense (a span of at most
    [4m + 8] slots for [m] keys; holes hold [-1]), giving O(1) lookups;
    parallel sorted key/value arrays resolved by a branchless lower-bound
    otherwise. Both answer identically. *)
module Intmap : sig
  type t

  val of_hashtbl : (int, int) Hashtbl.t -> t
  (** Compile a finished hashtable. Values must be [>= 0]; with duplicate
      key bindings only the most recent (as [Hashtbl.find] would return)
      survives. @raise Invalid_argument on a negative key or value. *)

  val of_pairs : (int * int) array -> t
  (** Compile an array of distinct-keyed [(key, value)] pairs, in any
      order; the argument is not modified. The result is structurally
      equal to {!of_sorted} on the sorted pairs. When that is the direct
      layout (a dense key span) it is filled in one O(m) pass with no
      sort.
      @raise Invalid_argument on a negative key/value or a duplicate key. *)

  val of_sorted : keys:int array -> vals:int array -> t
  (** Compile parallel arrays already sorted by strictly increasing key.
      @raise Invalid_argument if lengths differ, keys are not strictly
      increasing, or any key/value is negative. *)

  val find : t -> int -> int
  (** @raise Not_found on an absent key (matching [Hashtbl.find]). *)

  val find_opt : t -> int -> int option

  val mem : t -> int -> bool

  val cardinal : t -> int

  val bytes : t -> int
  (** Payload bytes of the physical representation (headers excluded). *)

  val lower_bound : int array -> int -> int
  (** [lower_bound keys x] is the index of the first element [>= x] in a
      sorted array (length of the array when every element is [< x]).
      Branchless halving loop; exposed for reuse and for the qcheck pin
      against the reference binary search. *)
end

(** Immutable [int -> 'a] table: an {!Intmap} from key to slot plus a flat
    payload array. *)
module Table : sig
  type 'a t

  val of_hashtbl : (int, 'a) Hashtbl.t -> 'a t
  (** Compile a finished hashtable (non-negative keys; latest binding per
      key wins, as [Hashtbl.find] would). *)

  val find : 'a t -> int -> 'a
  (** @raise Not_found on an absent key. *)

  val find_opt : 'a t -> int -> 'a option

  val mem : 'a t -> int -> bool

  val map : ('a -> 'b) -> 'a t -> 'b t

  val cardinal : 'a t -> int

  val index_bytes : 'a t -> int
  (** Payload bytes of the key index (the ['a] items are not counted —
      their footprint is representation-specific to the caller). *)
end

(** Membership set over [0, n) with an adaptive representation: a
    byte-packed bitmap (one bit per vertex, O(1) tests) when the set is
    dense, a sorted key array (8 bytes per {e member}, O(log c) tests)
    when sparse — so n per-vertex sets cost O(total membership), not
    O(n^2/8), at million-vertex scale. The answers are identical either
    way. *)
module Bitset : sig
  type t

  val of_hashtbl_keys : n:int -> (int, unit) Hashtbl.t -> t
  (** @raise Invalid_argument if a key falls outside [0, n). *)

  val mem : t -> int -> bool
  (** [mem s v] is false outside [0, n). *)

  val cardinal : t -> int

  val bytes : t -> int
  (** Payload bytes of the physical representation. *)
end
