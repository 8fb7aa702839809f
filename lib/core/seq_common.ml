(* Machinery shared by the two sequence-routing techniques (Lemmas 7 and 8):
   the hop alphabet of the sequences and the vicinity-boundary walk. *)
open Cr_graph
open Cr_routing

type hop =
  | Via of int
      (* a temporary target inside the vicinity of the previous target;
         reached by Lemma 2 shortest-path routing *)
  | Jump of int * int
      (* (vertex, port): a direct link out of the previous target *)

let hop_vertex = function Via x -> x | Jump (x, _) -> x

let hop_words = function Via _ -> 1 | Jump _ -> 2

let seq_words hops = Array.fold_left (fun acc h -> acc + hop_words h) 0 hops

(* [boundary ~parent vic_x ~x] walks from [x] toward the root of a
   shortest-path tree (the destination) along [parent] and returns the
   first edge [(y, z)] with [y] inside [B(x)] and [z] outside.
   Precondition: the root is not in [B(x)] (so such an edge exists before
   the root). *)
let boundary ~parent vic_x ~x =
  let rec walk cur =
    let nxt = parent cur in
    if nxt < 0 then invalid_arg "Seq_common.boundary: destination inside vicinity";
    if not (Vicinity.mem vic_x nxt) then (cur, nxt) else walk nxt
  in
  walk x

let port_between g y z =
  match Graph.port_to g y z with
  | Some p -> p
  | None -> invalid_arg "Seq_common.port_between: not an edge"

(* Vicinity table cost in words: (member id, distance, first port) each. *)
let vicinity_words vic_u = 3 * Vicinity.size vic_u

(* Bit-level cost of one hop under the natural encoding: a 1-bit tag, a
   vertex id, and (for direct links) a port. *)
let hop_bits ~id_bits ~port_bits = function
  | Via _ -> 1 + id_bits
  | Jump _ -> 1 + id_bits + port_bits

let graph_id_bits g = Bits.bits_for (Graph.n g)

let graph_port_bits g = Bits.bits_for (max 1 (Graph.max_degree g))
