open Cr_graph
open Cr_routing
open Seq_common

type tail =
  | To_target
      (* the last hop vertex is the destination itself *)
  | To_tree of int * Tree_routing.label
      (* finish from the last target on T(w), w in the hitting set *)

type seq = { hops : hop array; tail : tail }

(* The dense store is the reference; the lazy one is [Seq_common]'s
   on-demand store, with no decision inputs of its own (the part map and
   the hitting-set trees are in the state). It keeps no destination tree:
   a destination here is any vertex of the source's part, far too many
   for resident trees to be read twice, so each miss runs one Dijkstra
   from the destination stopped once the source settles ([build_seq]
   reads the tree only at the source and its tree ancestors). The hitting
   set and its trees stay eager in both modes: there are only O~(n/q~) of
   them, shared by every pair, and the escape-hatch labels embedded in
   sequences point into them. *)

(* Type parameters: the parts that are not plain data (graph handle,
   vicinities shared with the enclosing scheme, lazy store), live in [t],
   [()] in [frozen]. *)
type ('g, 'v, 'l) state = {
  graph : 'g;
  eps : float;
  b : int;
  vic : 'v;
  hset : int list; (* the hitting set: the keys of [trees] *)
  trees : Tree_routing.t Compiled.Table.t; (* hitting-set vertex -> T(w) *)
  store : (seq, 'l) store;
  part_of : int array;
  table_words : int array;
  breakdown : (string * int) list;
}

type t = (Graph.t, Vicinity.t array, unit lazy_store) state

type header = {
  dst : int;
  hops : hop array;
  idx : int;
  tail : tail;
  in_tree : bool;
}

let table_words t = t.table_words

let breakdown t = t.breakdown

let tail_words = function
  | To_target -> 0
  | To_tree (_, lbl) -> 1 + Tree_routing.label_words lbl

(* Build the Lemma 7 sequence for the pair (u, v): temporary targets on a
   shortest path, advancing by at least s = d(u,v)/b per round, with the
   tree escape when the next boundary step falls under the threshold. The
   shortest-path tree of [v] is read through [dist] and [parent]; the
   hitting set is the key set of [trees]. It reads [dist] and [parent]
   only at [u] and its tree ancestors. *)
let build_seq g vic trees ~b ~src:u ~dst:v ~dist ~parent =
  let s = dist u /. float_of_int b in
  let rec go x acc rounds =
    if rounds > b + 2 then invalid_arg "Seq_routing: runaway sequence";
    if Vicinity.mem vic.(x) v then
      { hops = Array.of_list (List.rev (Via v :: acc)); tail = To_target }
    else begin
      let y, z = boundary ~parent vic.(x) ~x in
      if z = v then begin
        let acc = if y = x then acc else Via y :: acc in
        {
          hops = Array.of_list (List.rev (Jump (v, port_between g y v) :: acc));
          tail = To_target;
        }
      end
      else begin
        let dxz = dist x -. dist z in
        if dxz < s then begin
          match Vicinity.nearest_of vic.(x) (Compiled.Table.mem trees) with
          | None -> invalid_arg "Seq_routing: hitting set misses a vicinity"
          | Some w ->
            let tree = Compiled.Table.find trees w in
            {
              hops = Array.of_list (List.rev acc);
              tail = To_tree (w, Tree_routing.label tree v);
            }
        end
        else begin
          let acc = if y = x then acc else Via y :: acc in
          go z (Jump (z, port_between g y z) :: acc) (rounds + 1)
        end
      end
    end
  in
  go u [] 0

(* Packed, the tail is its tree root, or -1 for [To_target]. The label is
   not kept: [Tree_routing.label] is a precomputed per-member read, so
   re-deriving it from (root, dst) returns the very label the built
   sequence carried. *)
let pack_seq (sq : seq) =
  pack ~term:(match sq.tail with To_target -> -1 | To_tree (w, _) -> w) sq.hops

let unpack_seq trees ~dst a =
  let w = packed_term a in
  {
    tail =
      (if w < 0 then To_target
       else To_tree (w, Tree_routing.label (Compiled.Table.find trees w) dst));
    hops = packed_hops a;
  }

let preprocess ?substrate ?(eps = 0.5) ?(mode = `Eager) g ~vicinities ~parts
    ~part_of =
  (* NaN fails every comparison: test for the valid range, not against it. *)
  if not (Float.is_finite eps && eps > 0.0) then
    invalid_arg "Seq_routing.preprocess: eps must be finite and positive";
  if not (Bfs.is_connected g) then
    invalid_arg "Seq_routing.preprocess: graph must be connected";
  let sub = Substrate.for_graph substrate g in
  let n = Graph.n g in
  let b = max 1 (int_of_float (ceil (2.0 /. eps))) in
  let vic = vicinities in
  let hset =
    Hitting_set.greedy ~n (Array.to_list (Array.map Vicinity.members vic))
  in
  let trees =
    let tbl = Hashtbl.create (2 * List.length hset) in
    List.iter (fun w -> Hashtbl.replace tbl w (Substrate.spt_tree sub w)) hset;
    Compiled.Table.of_hashtbl tbl
  in
  (* Sanity: the part index map must agree with the parts themselves. *)
  Array.iteri
    (fun j part ->
      Array.iter
        (fun v ->
          if part_of.(v) <> j then
            invalid_arg "Seq_routing.preprocess: part_of disagrees with parts")
        part)
    parts;
  (* Table accounting: vicinity entries, one tree-routing record per
     hitting-set tree, and the stored sequences (with their tree labels). *)
  let table_words = Array.make n 0 in
  let vic_total = ref 0 in
  for u = 0 to n - 1 do
    vic_total := !vic_total + vicinity_words vic.(u);
    table_words.(u) <-
      vicinity_words vic.(u) + (7 * List.length hset)
  done;
  let store, seq_total =
    match mode with
    | `Eager ->
      dense sub ~parts ~dests:parts
        ~build:(fun _ -> build_seq g vic trees ~b)
        ~words:(fun (sq : seq) -> 1 + seq_words sq.hops + tail_words sq.tail)
        table_words
    | `Lazy -> (Lazy (lazy_store ~n ~trees:0 ()), 0)
  in
  let breakdown =
    [
      ("vicinities", !vic_total);
      ("tree-records", n * 7 * List.length hset);
      ("sequences", seq_total);
    ]
  in
  { graph = g; eps; b; vic; hset; trees; store; part_of; table_words;
    breakdown }

let fetch_seq t ~src:u ~dst:v =
  match t.store with
  | Dense seqs -> Compiled.Table.find seqs.(u) v
  | Lazy ls ->
    if u = v then raise Not_found;
    let j = t.part_of.(u) in
    if j < 0 || t.part_of.(v) <> j then raise Not_found;
    fetch ls t.graph ~src:u ~dst:v ~pack:pack_seq
      ~unpack:(unpack_seq t.trees ~dst:v)
      ~build:(build_seq t.graph t.vic t.trees ~b:t.b ~src:u ~dst:v)

let initial_header t ~src ~dst =
  let sq = fetch_seq t ~src ~dst in
  { dst; hops = sq.hops; idx = 0; tail = sq.tail; in_tree = false }

let header_words h = remaining_words h.hops h.idx + tail_words h.tail

let header_bits t h =
  remaining_bits t.graph h.hops h.idx
  +
  match h.tail with
  | To_target -> 0
  | To_tree (w, lbl) ->
    let tree = Compiled.Table.find t.trees w in
    graph_id_bits t.graph + snd (Tree_routing.encode_label tree lbl)

let rec step t ~at h =
  if h.in_tree then begin
    match h.tail with
    | To_tree (w, lbl) -> (
      let tree = Compiled.Table.find t.trees w in
      match Tree_routing.step tree ~at lbl with
      | `Deliver -> Port_model.Deliver
      | `Forward p -> Port_model.Forward (p, h))
    | To_target -> invalid_arg "Seq_routing.step: corrupt header"
  end
  else if h.idx >= Array.length h.hops then begin
    match h.tail with
    | To_target ->
      if at = h.dst then Port_model.Deliver
      else invalid_arg "Seq_routing.step: sequence exhausted off target"
    | To_tree _ -> step t ~at { h with in_tree = true }
  end
  else begin
    let hop = h.hops.(h.idx) in
    let target = hop_vertex hop in
    if at = target then step t ~at { h with idx = h.idx + 1 }
    else
      match hop with
      | Via x -> Port_model.Forward (Vicinity.step t.vic ~at ~dst:x, h)
      | Jump (_, port) -> Port_model.Forward (port, h)
  end

let route ?faults ?record_path ?detect_loops t ~src ~dst =
  let header = initial_header t ~src ~dst in
  Port_model.run t.graph ~src ~header ?faults
    ~step:(fun ~at h -> step t ~at h)
    ~header_words
    ~max_hops:((16 * Graph.n t.graph) + 64)
    ?record_path ?detect_loops ()

(* --- snapshot form ------------------------------------------------------ *)

(* The snapshot form drops exactly the marshal-hostile parts: the graph
   (the loader provides it), the vicinity family (frozen by the enclosing
   scheme so physical sharing survives the round trip), and a lazy
   store's runtime state (rebuilt empty, which never changes an answer).
   The dense store and the hitting-set tree table are plain data and ride
   the Marshal residue as-is. *)
type frozen = (unit, unit, unit) state

let freeze t = { t with graph = (); vic = (); store = freeze_store t.store }

let thaw ~graph ~vicinities z =
  { z with graph; vic = vicinities;
    store = thaw_store ~n:(Graph.n graph) ~trees:0 z.store }

module For_testing = struct
  let set_pair_cap t ~pairs = For_testing.set_caps t.store ~pairs
end
