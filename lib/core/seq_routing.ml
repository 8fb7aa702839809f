open Cr_graph
open Cr_routing
open Seq_common

type tail =
  | To_target
      (* the last hop vertex is the destination itself *)
  | To_tree of int * Tree_routing.label
      (* finish from the last target on T(w), w in the hitting set *)

type seq = { hops : hop array; tail : tail }

(* Packed sequence for the lazy cache: one int32 Bigarray per entry —
   [| tail kind; tree root; label len; label...; nhops; v0; p0; ... |]
   with kind 0 = To_target, 1 = To_tree, and port -1 marking a Via hop.
   Encode/decode are exact inverses. *)
type packed_seq = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

(* The dense store is the reference: every same-part pair's sequence
   precomputed, Theta(sum_i |U_i|^2) memory. The lazy store builds a
   sequence on first use from an early-stopped Dijkstra rooted at the
   destination — the build only reads tree data at vertices strictly
   closer to the destination than the source — and keeps it packed in a
   FIFO-capped cache. Cache state never changes an answer, so decisions
   are bit-identical across modes. The hitting set and its trees stay
   eager in both modes: there are only O~(n/q~) of them, shared by every
   pair, and the escape-hatch labels embedded in sequences point into
   them. Guarded by a mutex because [Scheme.evaluate_batch] routes on
   pool worker domains; the [Substrate] handle is never touched after
   preprocess. *)
type lazy_store = {
  lmutex : Mutex.t;
  lcache : (int * int, packed_seq) Hashtbl.t;
  lorder : (int * int) Queue.t;
  lcap : int;
  lws : Dijkstra.workspace;
  lin_hset : bool array;
}

type 'l store =
  | Dense of seq Compiled.Table.t array (* source -> (destination -> seq) *)
  | Lazy of 'l

(* Type parameters: the parts that are not plain data (graph handle,
   vicinities shared with the enclosing scheme, lazy store), live in [t],
   [()] in [frozen]. *)
type ('g, 'v, 'l) state = {
  graph : 'g;
  eps : float;
  b : int;
  vic : 'v;
  hset : int list;
  trees : Tree_routing.t Compiled.Table.t; (* hitting-set vertex -> T(w) *)
  store : 'l store;
  part_of : int array;
  table_words : int array;
  breakdown : (string * int) list;
}

type t = (Graph.t, Vicinity.t array, lazy_store) state

type header = {
  dst : int;
  hops : hop array;
  idx : int;
  tail : tail;
  in_tree : bool;
}

let eps t = t.eps

let table_words t = t.table_words

let breakdown t = t.breakdown

let tail_words = function
  | To_target -> 0
  | To_tree (_, lbl) -> 1 + Tree_routing.label_words lbl

(* Build the Lemma 7 sequence for the pair (u, v): temporary targets on a
   shortest path, advancing by at least s = d(u,v)/b per round, with the
   tree escape when the next boundary step falls under the threshold. *)
let build_seq g vic in_hset trees ~b ~src:u ~dst:v spt_v =
  let s = spt_v.Dijkstra.dist.(u) /. float_of_int b in
  let rec go x acc rounds =
    if rounds > b + 2 then invalid_arg "Seq_routing: runaway sequence";
    if Vicinity.mem vic.(x) v then
      { hops = Array.of_list (List.rev (Via v :: acc)); tail = To_target }
    else begin
      let y, z = boundary ~parent:(Array.get spt_v.Dijkstra.parent) vic.(x) ~x in
      if z = v then begin
        let acc = if y = x then acc else Via y :: acc in
        {
          hops = Array.of_list (List.rev (Jump (v, port_between g y v) :: acc));
          tail = To_target;
        }
      end
      else begin
        let dxz = spt_v.Dijkstra.dist.(x) -. spt_v.Dijkstra.dist.(z) in
        if dxz < s then begin
          match Vicinity.nearest_of vic.(x) (fun w -> in_hset w) with
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

let encode_seq (sq : seq) : packed_seq =
  let nh = Array.length sq.hops in
  let a = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (3 + (2 * nh)) in
  let kind, root = match sq.tail with To_target -> (0, -1) | To_tree (w, _) -> (1, w) in
  Bigarray.Array1.set a 0 (Int32.of_int kind);
  Bigarray.Array1.set a 1 (Int32.of_int root);
  Bigarray.Array1.set a 2 (Int32.of_int nh);
  Array.iteri
    (fun i h ->
      let v, p = match h with Via v -> (v, -1) | Jump (v, p) -> (v, p) in
      Bigarray.Array1.set a (3 + (2 * i)) (Int32.of_int v);
      Bigarray.Array1.set a (4 + (2 * i)) (Int32.of_int p))
    sq.hops;
  a

(* The tree label is not serialized: [Tree_routing.label] is a precomputed
   per-member read, so re-deriving it from (root, dst) returns the very
   same label the built sequence carried. *)
let decode_seq trees ~dst (a : packed_seq) : seq =
  let geti i = Int32.to_int (Bigarray.Array1.get a i) in
  let kind = geti 0 and root = geti 1 and nh = geti 2 in
  {
    tail =
      (if kind = 0 then To_target
       else To_tree (root, Tree_routing.label (Compiled.Table.find trees root) dst));
    hops =
      Array.init nh (fun i ->
          let v = geti (3 + (2 * i)) and p = geti (4 + (2 * i)) in
          if p < 0 then Via v else Jump (v, p));
  }

(* How many packed sequences the lazy cache retains before FIFO eviction.
   Contents never affect answers, only rebuild wall-clock. *)
let lazy_cache_cap = 8192

let membership ~n hset =
  let a = Array.make n false in
  List.iter (fun w -> a.(w) <- true) hset;
  a

(* An empty lazy store over the hitting set [hset]; preprocess and thaw
   both start from one. *)
let lazy_store ~n hset =
  {
    lmutex = Mutex.create ();
    lcache = Hashtbl.create (2 * lazy_cache_cap);
    lorder = Queue.create ();
    lcap = lazy_cache_cap;
    lws = Dijkstra.workspace n;
    lin_hset = membership ~n hset;
  }

let preprocess ?substrate ?(eps = 0.5) ?hitting ?(mode = `Dense) g ~vicinities
    ~parts ~part_of =
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
    match hitting with
    | Some h -> List.sort_uniq Int.compare h
    | None ->
      Hitting_set.greedy ~n (Array.to_list (Array.map Vicinity.members vic))
  in
  let in_hset = membership ~n hset in
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
  let table_words = Array.make n 0 in
  let vic_total = ref 0 in
  for u = 0 to n - 1 do
    vic_total := !vic_total + vicinity_words vic.(u);
    table_words.(u) <-
      vicinity_words vic.(u) + (7 * List.length hset)
  done;
  match mode with
  | `Dense ->
    let seqs = Array.init n (fun _ -> Hashtbl.create 8) in
    Array.iter
      (fun part ->
        Array.iter
          (fun v ->
            let spt_v = Substrate.spt sub v in
            Array.iter
              (fun u ->
                if u <> v then
                  Hashtbl.replace seqs.(u) v
                    (build_seq g vic (fun w -> in_hset.(w)) trees ~b ~src:u ~dst:v spt_v))
              part)
          part)
      parts;
    (* Table accounting: vicinity entries, one tree-routing record per
       hitting-set tree, and the stored sequences (with their tree labels). *)
    let seq_total = ref 0 in
    Array.iteri
      (fun u tbl ->
        Hashtbl.iter
          (fun _ (sq : seq) ->
            let w = 1 + seq_words sq.hops + tail_words sq.tail in
            seq_total := !seq_total + w;
            table_words.(u) <- table_words.(u) + w)
          tbl)
      seqs;
    let breakdown =
      [
        ("vicinities", !vic_total);
        ("tree-records", n * 7 * List.length hset);
        ("sequences", !seq_total);
      ]
    in
    { graph = g; eps; b; vic; hset; trees;
      store = Dense (Array.map Compiled.Table.of_hashtbl seqs); part_of;
      table_words; breakdown }
  | `Lazy ->
    let breakdown =
      [
        ("vicinities", !vic_total);
        ("tree-records", n * 7 * List.length hset);
        ("sequences", 0);
      ]
    in
    { graph = g; eps; b; vic; hset; trees; store = Lazy (lazy_store ~n hset);
      part_of; table_words; breakdown }

let fetch_seq t ~src:u ~dst:v =
  match t.store with
  | Dense seqs -> Compiled.Table.find seqs.(u) v
  | Lazy ls ->
    if u = v then raise Not_found;
    let j = t.part_of.(u) in
    if j < 0 || t.part_of.(v) <> j then raise Not_found;
    Mutex.protect ls.lmutex (fun () ->
        match Hashtbl.find_opt ls.lcache (u, v) with
        | Some packed -> decode_seq t.trees ~dst:v packed
        | None ->
          (* The build reads the destination tree only at [u] and at
             vertices strictly closer to [v] (boundary walks move
             rootward), so stopping the search right after [u] settles
             yields a bit-identical sequence to the dense store's. *)
          let sq =
            Dijkstra.with_spt_until ls.lws t.graph v ~until:u (fun spt_v ->
                build_seq t.graph t.vic
                  (fun w -> ls.lin_hset.(w))
                  t.trees ~b:t.b ~src:u ~dst:v spt_v)
          in
          Hashtbl.replace ls.lcache (u, v) (encode_seq sq);
          Queue.push (u, v) ls.lorder;
          if Hashtbl.length ls.lcache > ls.lcap then
            Hashtbl.remove ls.lcache (Queue.pop ls.lorder);
          sq)

let initial_header t ~src ~dst =
  let sq = fetch_seq t ~src ~dst in
  { dst; hops = sq.hops; idx = 0; tail = sq.tail; in_tree = false }

let header_words h =
  let remaining = ref 2 in
  for i = h.idx to Array.length h.hops - 1 do
    remaining := !remaining + hop_words h.hops.(i)
  done;
  !remaining + tail_words h.tail

let header_bits t h =
  let id_bits = graph_id_bits t.graph in
  let port_bits = graph_port_bits t.graph in
  let acc = ref (id_bits + 1) in
  for i = h.idx to Array.length h.hops - 1 do
    acc := !acc + hop_bits ~id_bits ~port_bits h.hops.(i)
  done;
  (match h.tail with
  | To_target -> ()
  | To_tree (w, lbl) ->
    let tree = Compiled.Table.find t.trees w in
    acc := !acc + id_bits + snd (Tree_routing.encode_label tree lbl));
  !acc

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
   scheme so physical sharing survives the round trip), and the lazy
   store's runtime plumbing (mutex, workspace, cache — rebuilt empty,
   which never changes an answer). The dense store and the hitting-set
   tree table are plain data and ride the Marshal residue as-is. *)
type frozen = (unit, unit, unit) state

let freeze t =
  { t with graph = (); vic = ();
    store = (match t.store with Dense s -> Dense s | Lazy _ -> Lazy ()) }

let thaw ~graph ~vicinities z =
  { z with graph; vic = vicinities;
    store =
      (match z.store with
      | Dense s -> Dense s
      | Lazy () -> Lazy (lazy_store ~n:(Graph.n graph) z.hset)) }
