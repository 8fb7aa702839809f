open Cr_graph
open Cr_routing
open Seq_common

type terminal =
  | At_dst            (* the last hop vertex is the destination *)
  | Relay of int      (* the last hop vertex re-injects its own sequence *)

type seq = { hops : hop array; terminal : terminal }

(* Packed sequence: one int32 Bigarray per cached entry —
   [| terminal; nhops; v0; p0; v1; p1; ... |] with terminal -1 = At_dst,
   r >= 0 = Relay r, and port -1 marking a Via hop. Encode/decode are exact
   inverses, so a decoded sequence is bit-identical to the built one. *)
type packed_seq = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

let encode_seq (sq : seq) : packed_seq =
  let nh = Array.length sq.hops in
  let a = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (2 + (2 * nh)) in
  Bigarray.Array1.set a 0
    (Int32.of_int (match sq.terminal with At_dst -> -1 | Relay r -> r));
  Bigarray.Array1.set a 1 (Int32.of_int nh);
  Array.iteri
    (fun i h ->
      let v, p = match h with Via v -> (v, -1) | Jump (v, p) -> (v, p) in
      Bigarray.Array1.set a (2 + (2 * i)) (Int32.of_int v);
      Bigarray.Array1.set a (3 + (2 * i)) (Int32.of_int p))
    sq.hops;
  a

let decode_seq (a : packed_seq) : seq =
  let geti i = Int32.to_int (Bigarray.Array1.get a i) in
  let term = geti 0 in
  let nh = geti 1 in
  {
    terminal = (if term < 0 then At_dst else Relay term);
    hops =
      Array.init nh (fun i ->
          let v = geti (2 + (2 * i)) and p = geti (3 + (2 * i)) in
          if p < 0 then Via v else Jump (v, p));
  }

(* The reference store keeps every (u, w) sequence, Theta(|U_i| |W_i|)
   pairs per part — fine up to a few thousand vertices and what the
   equivalence tests pin against. The lazy store keeps no sequence up
   front: one is built on first use from the destination's shortest-path
   tree and kept in a FIFO-capped packed cache. The destinations are only
   the sets W_i (centres, O~(n^(2/3)) vertices against Theta(n |A| / q)
   pairs), so the trees themselves are kept too, one per destination,
   behind a recency-evicted cap: the first miss for [w] runs one full
   Dijkstra from [w], every later miss for [w] reads the resident tree.
   Cache state never changes an answer — every build is a pure function
   of (u, w) — so routing decisions are identical to the dense store's,
   eviction order and domain interleaving included.

   The lazy store is consulted from pool worker domains during
   [evaluate_batch]; the mutex serializes both caches, the workspace and
   the distance memo. It deliberately does NOT touch the [Substrate]
   handle, which is unsynchronized by contract. *)

(* A destination's resident tree: the Dijkstra parent array alone, int32
   off-heap (4 B/vertex); distances are re-derived along it on demand.
   [last_use] is the store clock at the latest read. *)
type tree_entry = {
  parents : (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable last_use : int;
}

(* A lazy store's decision inputs: plain data, kept by its snapshot form. *)
type lazy_inputs = {
  dest_group : int array;  (* w -> its part index in [dests], or -1 *)
  part_of : int array;
  d_min : float;
}

type lazy_store = {
  linputs : lazy_inputs;
  lmutex : Mutex.t;
  lcache : (int * int, packed_seq) Hashtbl.t;
  lorder : (int * int) Queue.t; (* FIFO eviction *)
  mutable lcap : int;
  ltrees : (int, tree_entry) Hashtbl.t; (* destination -> its tree *)
  mutable ltree_cap : int;
  mutable lclock : int;         (* bumped per tree read *)
  lws : Dijkstra.workspace;     (* tree builds *)
  ldist : float array;          (* re-derived distances, valid where ... *)
  lstamp : int array;           (* ... [lstamp.(v)] = [lclock] *)
  mutable lmax_hops : int;      (* longest sequence observed so far *)
}

type 'l store =
  | Dense of seq Compiled.Table.t array (* source -> (destination -> seq) *)
  | Lazy of 'l

(* Type parameters: the parts that are not plain data (graph handle,
   vicinities shared with the enclosing scheme, lazy store), live in [t],
   in snapshot form in [frozen]. *)
type ('g, 'v, 'l) state = {
  graph : 'g;
  eps : float;
  b : int;
  vic : 'v;
  store : 'l store;
  table_words : int array;
  dense_max_seq_hops : int;
  breakdown : (string * int) list;
}

type t = (Graph.t, Vicinity.t array, lazy_store) state

type header = {
  dst : int;
  hops : hop array;
  idx : int;
  terminal : terminal;
}

let eps t = t.eps

let table_words t = t.table_words

let max_sequence_hops t =
  match t.store with
  | Dense _ -> t.dense_max_seq_hops
  | Lazy ls -> Mutex.protect ls.lmutex (fun () -> ls.lmax_hops)

let breakdown t = t.breakdown

(* Build the Lemma 8 sequence for (u, w): the first two path edges, then
   doubling-threshold subsequences walked along the shortest-path tree of
   [w], read through [dist] and [parent]. [relay_of x] picks a vertex of
   the source's part inside B(x). *)
let build_seq g vic ~b ~d_min ~relay_of ~src:u ~dst:w ~dist ~parent =
  let max_subsequences =
    let d = dist u in
    8 + int_of_float (Float.max 0.0 (log (Float.max 2.0 (d /. d_min)) /. log 2.0))
  in
  let finish acc terminal = { hops = Array.of_list (List.rev acc); terminal } in
  (* One subsequence from [x] with threshold [s]; at most [2b] entries. *)
  let rec subsequence x s count acc =
    if Vicinity.mem vic.(x) w then `Done (finish (Via w :: acc) At_dst)
    else begin
      let y, z = boundary ~parent vic.(x) ~x in
      if z = w then begin
        let acc = if y = x then acc else Via y :: acc in
        `Done (finish (Jump (w, port_between g y w) :: acc) At_dst)
      end
      else begin
        let dxz = dist x -. dist z in
        if dxz < s then begin
          match relay_of x with
          | None -> invalid_arg "Seq_routing2: a vicinity misses the source part"
          | Some r ->
            if r = w then `Done (finish (Via r :: acc) At_dst)
            else `Done (finish (Via r :: acc) (Relay r))
        end
        else begin
          let acc = if y = x then acc else Via y :: acc in
          let acc = Jump (z, port_between g y z) :: acc in
          let count = count + 2 in
          if count >= 2 * b then `More (z, acc)
          else subsequence z s count acc
        end
      end
    end
  in
  let rec subsequences x k acc =
    if k > max_subsequences then
      invalid_arg "Seq_routing2: runaway subsequence construction";
    let s = float_of_int (1 lsl k) /. float_of_int b *. d_min in
    match subsequence x s 0 acc with
    | `Done sq -> sq
    | `More (x', acc') -> subsequences x' (k + 1) acc'
  in
  (* The first two vertices of the shortest path from u to w. *)
  let u1 = parent u in
  let acc = [ Jump (u1, port_between g u u1) ] in
  if u1 = w then finish acc At_dst
  else begin
    let u2 = parent u1 in
    let acc = Jump (u2, port_between g u1 u2) :: acc in
    if u2 = w then finish acc At_dst else subsequences u2 1 acc
  end

(* How many packed sequences the lazy cache retains before FIFO eviction.
   Contents never affect answers, only rebuild wall-clock. *)
let lazy_cache_cap = 8192

(* How many destination trees the lazy store keeps before evicting the
   least recently read one: at most 4 n lazy_tree_cap bytes — 4 GB at
   n = 10^6, beside a ~56 GB build peak; 8 MB at n = 2000. *)
let lazy_tree_cap = 1024

(* An empty lazy store; preprocess and thaw both start from one. *)
let lazy_store ~n linputs =
  {
    linputs;
    lmutex = Mutex.create ();
    lcache = Hashtbl.create (2 * lazy_cache_cap);
    lorder = Queue.create ();
    lcap = lazy_cache_cap;
    ltrees = Hashtbl.create 64;
    ltree_cap = lazy_tree_cap;
    lclock = 0;
    lws = Dijkstra.workspace n;
    ldist = Array.make n 0.0;
    lstamp = Array.make n (-1);
    lmax_hops = 0;
  }

(* The parent accessor of [w]'s shortest-path tree, read from the cache or
   built by one full Dijkstra. Bumps the clock, which also invalidates the
   distances [tree_dist] memoized for the previous build. *)
let resident_tree ls g w =
  ls.lclock <- ls.lclock + 1;
  let parents =
    match Hashtbl.find_opt ls.ltrees w with
    | Some tr ->
      tr.last_use <- ls.lclock;
      tr.parents
    | None ->
      if Hashtbl.length ls.ltrees >= ls.ltree_cap then begin
        let oldest, _ =
          Hashtbl.fold
            (fun v tr (o, t) -> if tr.last_use < t then (v, tr.last_use) else (o, t))
            ls.ltrees (-1, max_int)
        in
        Hashtbl.remove ls.ltrees oldest
      end;
      let parents =
        Dijkstra.with_spt ls.lws g w (fun spt ->
            let p = spt.Dijkstra.parent in
            let a =
              Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout
                (Array.length p)
            in
            Array.iteri (fun v x -> a.{v} <- Int32.of_int x) p;
            a)
      in
      Hashtbl.replace ls.ltrees w { parents; last_use = ls.lclock };
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
    if ls.lstamp.(v) = ls.lclock then ls.ldist.(v)
    else begin
      let p = parent v in
      let d =
        if p < 0 then 0.0 else dist p +. Graph.port_weight g p (port_between g p v)
      in
      ls.ldist.(v) <- d;
      ls.lstamp.(v) <- ls.lclock;
      d
    end
  in
  dist

let preprocess ?substrate ?(eps = 0.5) ?(mode = `Dense) g ~vicinities ~parts
    ~part_of ~dests =
  (* NaN fails every comparison: test for the valid range, not against it. *)
  if not (Float.is_finite eps && eps > 0.0) then
    invalid_arg "Seq_routing2.preprocess: eps must be finite and positive";
  if not (Bfs.is_connected g) then
    invalid_arg "Seq_routing2.preprocess: graph must be connected";
  let sub = Substrate.for_graph substrate g in
  if Array.length parts <> Array.length dests then
    invalid_arg "Seq_routing2.preprocess: |parts| <> |dests|";
  let n = Graph.n g in
  let b = 1 + max 1 (int_of_float (ceil (2.0 /. eps))) in
  let vic = vicinities in
  let d_min = Graph.min_edge_weight g in
  let table_words = Array.make n 0 in
  let vic_total = ref 0 in
  for u = 0 to n - 1 do
    vic_total := !vic_total + vicinity_words vic.(u);
    table_words.(u) <- vicinity_words vic.(u)
  done;
  match mode with
  | `Dense ->
    let seqs = Array.init n (fun _ -> Hashtbl.create 8) in
    Array.iteri
      (fun j part ->
        let relay_of x =
          Vicinity.nearest_of vic.(x) (fun v -> part_of.(v) = j)
        in
        Array.iter
          (fun w ->
            let spt_w = Substrate.spt sub w in
            let dist = Array.get spt_w.Dijkstra.dist
            and parent = Array.get spt_w.Dijkstra.parent in
            Array.iter
              (fun u ->
                if u <> w then
                  Hashtbl.replace seqs.(u) w
                    (build_seq g vic ~b ~d_min ~relay_of ~src:u ~dst:w ~dist
                       ~parent))
              part)
          dests.(j))
      parts;
    let seq_total = ref 0 in
    let max_seq_hops = ref 0 in
    Array.iteri
      (fun u tbl ->
        Hashtbl.iter
          (fun _ (sq : seq) ->
            max_seq_hops := max !max_seq_hops (Array.length sq.hops);
            let w = 2 + seq_words sq.hops in
            seq_total := !seq_total + w;
            table_words.(u) <- table_words.(u) + w)
          tbl)
      seqs;
    {
      graph = g;
      eps;
      b;
      vic;
      store = Dense (Array.map Compiled.Table.of_hashtbl seqs);
      table_words;
      dense_max_seq_hops = !max_seq_hops;
      breakdown = [ ("vicinities", !vic_total); ("sequences", !seq_total) ];
    }
  | `Lazy ->
    let dest_group = Array.make n (-1) in
    Array.iteri
      (fun j ws -> Array.iter (fun w -> dest_group.(w) <- j) ws)
      dests;
    {
      graph = g;
      eps;
      b;
      vic;
      store = Lazy (lazy_store ~n { dest_group; part_of; d_min });
      table_words;
      dense_max_seq_hops = 0;
      breakdown = [ ("vicinities", !vic_total); ("sequences", 0) ];
    }

let fetch_seq t ~src:u ~dst:w =
  match t.store with
  | Dense seqs -> Compiled.Table.find seqs.(u) w
  | Lazy ls ->
    if u = w then raise Not_found;
    let li = ls.linputs in
    let j = li.dest_group.(w) in
    if j < 0 || li.part_of.(u) <> j then raise Not_found;
    Mutex.protect ls.lmutex (fun () ->
        match Hashtbl.find_opt ls.lcache (u, w) with
        | Some packed ->
          if !Telemetry.on then begin
            let c = Telemetry.counters_shard () in
            c.Telemetry.lazy_seq_hits <- c.Telemetry.lazy_seq_hits + 1
          end;
          decode_seq packed
        | None ->
          if !Telemetry.on then begin
            let c = Telemetry.counters_shard () in
            c.Telemetry.lazy_seq_misses <- c.Telemetry.lazy_seq_misses + 1
          end;
          let relay_of x =
            Vicinity.nearest_of t.vic.(x) (fun v -> li.part_of.(v) = j)
          in
          let parent = resident_tree ls t.graph w in
          let sq =
            build_seq t.graph t.vic ~b:t.b ~d_min:li.d_min ~relay_of ~src:u
              ~dst:w ~dist:(tree_dist ls t.graph parent) ~parent
          in
          Hashtbl.replace ls.lcache (u, w) (encode_seq sq);
          Queue.push (u, w) ls.lorder;
          if Hashtbl.length ls.lcache > ls.lcap then
            Hashtbl.remove ls.lcache (Queue.pop ls.lorder);
          ls.lmax_hops <- max ls.lmax_hops (Array.length sq.hops);
          sq)

let initial_header t ~src ~dst =
  let sq = fetch_seq t ~src ~dst in
  { dst; hops = sq.hops; idx = 0; terminal = sq.terminal }

let header_words h =
  let remaining = ref 2 in
  for i = h.idx to Array.length h.hops - 1 do
    remaining := !remaining + hop_words h.hops.(i)
  done;
  !remaining

let header_bits t h =
  let id_bits = graph_id_bits t.graph in
  let port_bits = graph_port_bits t.graph in
  let acc = ref (id_bits + 1) in
  for i = h.idx to Array.length h.hops - 1 do
    acc := !acc + hop_bits ~id_bits ~port_bits h.hops.(i)
  done;
  !acc

let rec step t ~at h =
  if h.idx >= Array.length h.hops then begin
    match h.terminal with
    | At_dst ->
      if at = h.dst then Port_model.Deliver
      else invalid_arg "Seq_routing2.step: sequence exhausted off target"
    | Relay r ->
      if at <> r then invalid_arg "Seq_routing2.step: relay mismatch"
      else step t ~at (initial_header t ~src:r ~dst:h.dst)
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
    ~max_hops:((64 * Graph.n t.graph) + 256)
    ?record_path ?detect_loops ()

(* --- snapshot form ------------------------------------------------------ *)

(* The snapshot form drops the graph, the vicinities (frozen by the
   enclosing scheme) and the lazy store's runtime plumbing, keeping its
   decision inputs; the pair and tree caches and the [lmax_hops]
   observation start empty, which never changes an answer. *)
type frozen = (unit, unit, lazy_inputs) state

let freeze t =
  { t with graph = (); vic = ();
    store = (match t.store with Dense s -> Dense s | Lazy ls -> Lazy ls.linputs) }

let thaw ~graph ~vicinities z =
  { z with graph; vic = vicinities;
    store =
      (match z.store with
      | Dense s -> Dense s
      | Lazy li -> Lazy (lazy_store ~n:(Graph.n graph) li)) }

(* --- testing ------------------------------------------------------------ *)

module For_testing = struct
  let rederived_dists g w =
    let n = Graph.n g in
    let ls = lazy_store ~n { dest_group = [||]; part_of = [||]; d_min = 0.0 } in
    let parent = resident_tree ls g w in
    Array.init n (tree_dist ls g parent)

  let set_caps t ~pairs ~trees =
    if pairs < 1 || trees < 1 then invalid_arg "Seq_routing2.set_caps";
    match t.store with
    | Dense _ -> ()
    | Lazy ls ->
      Mutex.protect ls.lmutex (fun () ->
          ls.lcap <- pairs;
          ls.ltree_cap <- trees)
end
