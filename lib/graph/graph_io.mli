(** Plain-text edge-list serialization.

    Format: a header line [p <n> <m>] followed by [m] lines [e <u> <v> <w>].
    Lines starting with [c] are comments. This is a weighted variant of the
    DIMACS challenge format, so externally produced graphs can be fed to the
    CLI tools. *)

val to_string : Graph.t -> string

val of_string : string -> Graph.t
(** Parses a document produced by {!to_string} (or hand-written in the same
    format) and validates it strictly. Beyond syntax, the parser rejects —
    each with a [Failure] naming the offending line:
    - a missing, duplicate, or malformed [p] header, and one whose [n]
      or [2m] exceeds {!Graph.csr_limit};
    - negative vertex ids, and ids [>= n] (via {!Graph.of_edges});
    - self-loops [e u u w];
    - the same unordered pair listed twice (never silently merged);
    - non-finite ([nan]/[inf]) or non-positive weights;
    - an edge count that disagrees with the [m] the header declares.

    @raise Failure on any malformed document. *)

val save : Graph.t -> string -> unit
(** [save g path] writes [to_string g] to [path]. *)

val load : string -> Graph.t
(** [load path] parses the file at [path], streaming it line by line —
    the document is never held in memory whole, and edges go straight
    into the CSR builder, so million-edge files load in O(m) working
    memory. Errors carry the same line numbers as {!of_string}.
    @raise Failure on parse errors. *)
