(* Machinery shared by the two sequence-routing techniques (Lemmas 7 and 8):
   the hop alphabet of the sequences, the vicinity-boundary walk, and the
   two sequence stores. *)
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

(* A header's cost for the hops from [idx] on: in words, with the
   destination and the index; in bits, with the destination and one tag
   bit. *)
let remaining_words hops idx =
  let acc = ref 2 in
  for i = idx to Array.length hops - 1 do
    acc := !acc + hop_words hops.(i)
  done;
  !acc

let remaining_bits g hops idx =
  let id_bits = graph_id_bits g and port_bits = graph_port_bits g in
  let acc = ref (id_bits + 1) in
  for i = idx to Array.length hops - 1 do
    acc := !acc + hop_bits ~id_bits ~port_bits hops.(i)
  done;
  !acc

(* --- sequence stores ---------------------------------------------------- *)

(* [Dense] is the reference: every pair's sequence precomputed, source ->
   (destination -> seq), Theta(sum_i |U_i| |W_i|) memory. [Lazy] holds an
   on-demand store, or in snapshot form its decision inputs. *)
type ('seq, 'l) store =
  | Dense of 'seq Compiled.Table.t array
  | Lazy of 'l

(* The dense store over the pairs [U_j x W_j]: [build j ~src ~dst ~dist
   ~parent] reads the destination's [Substrate.spt] tree. Adds [words] of
   every sequence to its source's [table_words] and returns the store with
   the words' total. *)
let dense sub ~parts ~dests ~build ~words table_words =
  let seqs = Array.map (fun _ -> Hashtbl.create 8) table_words in
  Array.iteri
    (fun j part ->
      Array.iter
        (fun w ->
          let spt = Substrate.spt sub w in
          let dist = Array.get spt.Dijkstra.dist
          and parent = Array.get spt.Dijkstra.parent in
          Array.iter
            (fun u ->
              if u <> w then
                Hashtbl.replace seqs.(u) w (build j ~src:u ~dst:w ~dist ~parent))
            part)
        dests.(j))
    parts;
  let total = ref 0 in
  Array.iteri
    (fun u tbl ->
      Hashtbl.iter
        (fun _ sq ->
          let w = words sq in
          total := !total + w;
          table_words.(u) <- table_words.(u) + w)
        tbl)
    seqs;
  (Dense (Array.map Compiled.Table.of_hashtbl seqs), !total)

(* The on-demand store keeps no sequence up front: one is built on first
   use from the destination's shortest-path tree and kept packed in a
   FIFO-capped pair cache. How a miss gets the tree is the owner's choice,
   made by its tree cap:
   - a positive cap keeps the trees, one per destination, least recently
     read evicted past the cap: the first miss for [w] runs one full
     Dijkstra from [w], every later miss for [w] reads the resident tree.
     That suits few destinations (Lemma 8's centres).
   - cap 0 keeps no tree: each miss runs one Dijkstra from [w] stopped
     once the source settles. That suits an owner whose destinations are
     too many to keep trees for (Lemma 7's, any vertex of the source's
     part) and whose build reads the tree only at the source and its tree
     ancestors: they settle no later than the source, with their final
     distances and parents, so the build reads what a full run gives.
   Cache state never changes an answer — every build is a pure function
   of (u, w) — so routing decisions are identical to the dense store's,
   eviction order and domain interleaving included.

   The store is consulted from pool worker domains during
   [evaluate_batch]; the mutex serializes both caches, the workspace and
   the distance memo. It deliberately does NOT touch the [Substrate]
   handle, which is unsynchronized by contract. [inputs] are the owner's
   decision inputs: plain data, which the snapshot form keeps while
   everything else restarts empty. *)

(* A packed sequence, one int32 Bigarray per cached entry —
   [| term; nhops; v0; p0; v1; p1; ... |] with port -1 marking a Via hop;
   [term] is the owner's encoding of how the sequence ends. *)
type packed = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

(* A destination's resident tree: the Dijkstra parent array alone, int32
   off-heap (4 B/vertex); distances are re-derived along it on demand.
   [last_use] is the store clock at the latest read. *)
type tree_entry = { parents : packed; mutable last_use : int }

type 'i lazy_store = {
  inputs : 'i;
  mutex : Mutex.t;
  cache : (int * int, packed) Hashtbl.t;
  order : (int * int) Queue.t;  (* FIFO eviction *)
  mutable cap : int;
  trees : (int, tree_entry) Hashtbl.t;  (* destination -> its tree *)
  mutable tree_cap : int;       (* 0: keep none, search per miss *)
  mutable clock : int;          (* bumped per tree read *)
  ws : Dijkstra.workspace;      (* tree builds and searches *)
  dist : float array;           (* re-derived distances, valid where ... *)
  stamp : int array;            (* ... [stamp.(v)] = [clock] *)
  mutable max_hops : int;       (* longest sequence built so far *)
}

(* How many packed sequences the pair cache retains before FIFO eviction.
   Contents never affect answers, only rebuild wall-clock. *)
let lazy_cache_cap = 8192

(* How many destination trees a tree-keeping store holds before evicting
   the least recently read one: at most 4 n lazy_tree_cap bytes — 4 GB at
   n = 10^6, beside a ~56 GB build peak; 8 MB at n = 2000. *)
let lazy_tree_cap = 1024

(* An empty store keeping at most [trees] destination trees; preprocess
   and thaw both start from one. A store that keeps none has no distance
   memo either. *)
let lazy_store ~n ~trees inputs =
  let memo = if trees > 0 then n else 0 in
  {
    inputs;
    mutex = Mutex.create ();
    cache = Hashtbl.create (2 * lazy_cache_cap);
    order = Queue.create ();
    cap = lazy_cache_cap;
    trees = Hashtbl.create 64;
    tree_cap = trees;
    clock = 0;
    ws = Dijkstra.workspace n;
    dist = Array.make memo 0.0;
    stamp = Array.make memo (-1);
    max_hops = 0;
  }

let freeze_store = function Dense s -> Dense s | Lazy ls -> Lazy ls.inputs

let thaw_store ~n ~trees = function
  | Dense s -> Dense s
  | Lazy inputs -> Lazy (lazy_store ~n ~trees inputs)

let pack ~term hops : packed =
  let nh = Array.length hops in
  let a = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (2 + (2 * nh)) in
  a.{0} <- Int32.of_int term;
  a.{1} <- Int32.of_int nh;
  Array.iteri
    (fun i h ->
      let v, p = match h with Via v -> (v, -1) | Jump (v, p) -> (v, p) in
      a.{2 + (2 * i)} <- Int32.of_int v;
      a.{3 + (2 * i)} <- Int32.of_int p)
    hops;
  a

let packed_term (a : packed) = Int32.to_int a.{0}

let packed_hops (a : packed) =
  Array.init (Int32.to_int a.{1}) (fun i ->
      let v = Int32.to_int a.{2 + (2 * i)} and p = Int32.to_int a.{3 + (2 * i)} in
      if p < 0 then Via v else Jump (v, p))

(* The parent accessor of [w]'s shortest-path tree, read from the cache or
   built by one full Dijkstra. Bumps the clock, which also invalidates the
   distances [tree_dist] memoized for the previous build. *)
let resident_tree ls g w =
  ls.clock <- ls.clock + 1;
  let parents =
    match Hashtbl.find_opt ls.trees w with
    | Some tr ->
      tr.last_use <- ls.clock;
      tr.parents
    | None ->
      if Hashtbl.length ls.trees >= ls.tree_cap then begin
        let oldest, _ =
          Hashtbl.fold
            (fun v tr (o, t) -> if tr.last_use < t then (v, tr.last_use) else (o, t))
            ls.trees (-1, max_int)
        in
        Hashtbl.remove ls.trees oldest
      end;
      let parents =
        Dijkstra.with_spt ls.ws g w (fun spt ->
            let p = spt.Dijkstra.parent in
            let a =
              Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout
                (Array.length p)
            in
            Array.iteri (fun v x -> a.{v} <- Int32.of_int x) p;
            a)
      in
      Hashtbl.replace ls.trees w { parents; last_use = ls.clock };
      if !Telemetry.on then begin
        let c = Telemetry.counters_shard () in
        c.Telemetry.lazy_tree_builds <- c.Telemetry.lazy_tree_builds + 1
      end;
      parents
  in
  fun v -> Int32.to_int parents.{v}

(* Distances to the root of a resident tree. Dijkstra set dist(v) =
   dist(parent v) +. w(parent v, v) with the parent's final distance, so
   summing the parent chain from the root outward, in that order,
   reproduces the search's floats bit for bit. Memoized per build: a
   build's queries all lie on the one tree path from its source. *)
let tree_dist ls g parent =
  let rec dist v =
    if ls.stamp.(v) = ls.clock then ls.dist.(v)
    else begin
      let p = parent v in
      let d =
        if p < 0 then 0.0 else dist p +. Graph.port_weight g p (port_between g p v)
      in
      ls.dist.(v) <- d;
      ls.stamp.(v) <- ls.clock;
      d
    end
  in
  dist

(* The sequence for [(src, dst)]: [unpack] of the cached entry, or on a
   miss [build ~dist ~parent] over [dst]'s tree — resident, or searched
   until [src] settles when the store keeps no tree — cached as [pack] of
   it. The lock is taken by hand, not through a closure, so a hit
   allocates no more than its key and the unpacked sequence. *)
let fetch ls g ~src ~dst ~build ~pack ~unpack =
  Mutex.lock ls.mutex;
  match
    match Hashtbl.find_opt ls.cache (src, dst) with
    | Some p ->
      if !Telemetry.on then begin
        let c = Telemetry.counters_shard () in
        c.Telemetry.lazy_seq_hits <- c.Telemetry.lazy_seq_hits + 1
      end;
      unpack p
    | None ->
      if !Telemetry.on then begin
        let c = Telemetry.counters_shard () in
        c.Telemetry.lazy_seq_misses <- c.Telemetry.lazy_seq_misses + 1
      end;
      let sq =
        if ls.tree_cap = 0 then
          Dijkstra.with_spt_until ls.ws g dst ~until:src (fun spt ->
              build ~dist:(Array.get spt.Dijkstra.dist)
                ~parent:(Array.get spt.Dijkstra.parent))
        else begin
          let parent = resident_tree ls g dst in
          build ~dist:(tree_dist ls g parent) ~parent
        end
      in
      let p = pack sq in
      Hashtbl.replace ls.cache (src, dst) p;
      Queue.push (src, dst) ls.order;
      if Hashtbl.length ls.cache > ls.cap then
        Hashtbl.remove ls.cache (Queue.pop ls.order);
      ls.max_hops <- max ls.max_hops (Int32.to_int p.{1});
      sq
  with
  | sq ->
    Mutex.unlock ls.mutex;
    sq
  | exception e ->
    Mutex.unlock ls.mutex;
    raise e

(* --- testing ------------------------------------------------------------ *)

module For_testing = struct
  (* Every vertex's distance to [w] as a store re-derives it from the
     resident parent array of [w]'s tree — bit-identical to
     [(Dijkstra.spt g w).dist] on a connected [g]. *)
  let rederived_dists g w =
    let n = Graph.n g in
    let ls = lazy_store ~n ~trees:1 () in
    let parent = resident_tree ls g w in
    Array.init n (tree_dist ls g parent)

  (* Lowers a lazy store's pair-cache cap and, if given, its tree-cache
     cap, so a short query stream exercises eviction; a no-op on a dense
     store, and a store that keeps no tree keeps none. Call it before the
     first route: eviction removes one entry per insertion. *)
  let set_caps ?(trees = max_int) store ~pairs =
    if pairs < 1 || trees < 1 then invalid_arg "Seq_common.set_caps";
    match store with
    | Dense _ -> ()
    | Lazy ls ->
      Mutex.protect ls.mutex (fun () ->
          ls.cap <- min ls.cap pairs;
          ls.tree_cap <- min ls.tree_cap trees)
end
