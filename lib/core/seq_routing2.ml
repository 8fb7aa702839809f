open Cr_graph
open Cr_routing
open Seq_common

type terminal =
  | At_dst            (* the last hop vertex is the destination *)
  | Relay of int      (* the last hop vertex re-injects its own sequence *)

type seq = { hops : hop array; terminal : terminal }

(* The dense store is the reference: every (u, w) sequence, Theta(|U_i|
   |W_i|) pairs per part — fine up to a few thousand vertices and what the
   equivalence tests pin against. The lazy one is the shared on-demand
   store of [Seq_common]. Its resident trees suit Lemma 8: the
   destinations are only the sets W_i (centres, O~(n^(2/3)) vertices
   against Theta(n |A| / q) pairs), so most misses read a resident tree. *)

(* A lazy store's decision inputs: plain data, kept by its snapshot form. *)
type lazy_inputs = {
  dest_group : int array;  (* w -> its part index in [dests], or -1 *)
  part_of : int array;
  d_min : float;
}

(* Type parameters: the parts that are not plain data (graph handle,
   vicinities shared with the enclosing scheme, lazy store), live in [t],
   in snapshot form in [frozen]. *)
type ('g, 'v, 'l) state = {
  graph : 'g;
  eps : float;
  b : int;
  vic : 'v;
  store : (seq, 'l) store;
  table_words : int array;
  dense_max_seq_hops : int;
  breakdown : (string * int) list;
}

type t = (Graph.t, Vicinity.t array, lazy_inputs lazy_store) state

type header = {
  dst : int;
  hops : hop array;
  idx : int;
  terminal : terminal;
}

let table_words t = t.table_words

let max_sequence_hops t =
  match t.store with
  | Dense _ -> t.dense_max_seq_hops
  | Lazy ls -> Mutex.protect ls.mutex (fun () -> ls.max_hops)

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

(* Packed, [At_dst] is -1 and [Relay r] is r. *)
let pack_seq (sq : seq) =
  pack ~term:(match sq.terminal with At_dst -> -1 | Relay r -> r) sq.hops

let unpack_seq a =
  let r = packed_term a in
  { terminal = (if r < 0 then At_dst else Relay r); hops = packed_hops a }

let relay_of vic part_of j x = Vicinity.nearest_of vic.(x) (fun v -> part_of.(v) = j)

let preprocess ?substrate ?(eps = 0.5) ?(mode = `Eager) g ~vicinities ~parts
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
  let max_seq_hops = ref 0 in
  let store, seq_total =
    match mode with
    | `Eager ->
      dense sub ~parts ~dests
        ~build:(fun j ->
          build_seq g vic ~b ~d_min ~relay_of:(relay_of vic part_of j))
        ~words:(fun (sq : seq) ->
          max_seq_hops := max !max_seq_hops (Array.length sq.hops);
          2 + seq_words sq.hops)
        table_words
    | `Lazy ->
      let dest_group = Array.make n (-1) in
      Array.iteri
        (fun j ws -> Array.iter (fun w -> dest_group.(w) <- j) ws)
        dests;
      let inputs = { dest_group; part_of; d_min } in
      (Lazy (lazy_store ~n ~trees:lazy_tree_cap inputs), 0)
  in
  {
    graph = g;
    eps;
    b;
    vic;
    store;
    table_words;
    dense_max_seq_hops = !max_seq_hops;
    breakdown = [ ("vicinities", !vic_total); ("sequences", seq_total) ];
  }

let fetch_seq t ~src:u ~dst:w =
  match t.store with
  | Dense seqs -> Compiled.Table.find seqs.(u) w
  | Lazy ls ->
    if u = w then raise Not_found;
    let li = ls.inputs in
    let j = li.dest_group.(w) in
    if j < 0 || li.part_of.(u) <> j then raise Not_found;
    fetch ls t.graph ~src:u ~dst:w ~pack:pack_seq ~unpack:unpack_seq
      ~build:(fun ~dist ~parent ->
        build_seq t.graph t.vic ~b:t.b ~d_min:li.d_min
          ~relay_of:(relay_of t.vic li.part_of j) ~src:u ~dst:w ~dist ~parent)

let initial_header t ~src ~dst =
  let sq = fetch_seq t ~src ~dst in
  { dst; hops = sq.hops; idx = 0; terminal = sq.terminal }

let header_words h = remaining_words h.hops h.idx

let header_bits t h = remaining_bits t.graph h.hops h.idx

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
   enclosing scheme) and the lazy store's runtime state, keeping its
   decision inputs; the pair and tree caches and the longest-sequence
   observation start empty, which never changes an answer. *)
type frozen = (unit, unit, lazy_inputs) state

let freeze t = { t with graph = (); vic = (); store = freeze_store t.store }

let thaw ~graph ~vicinities z =
  { z with graph; vic = vicinities;
    store = thaw_store ~n:(Graph.n graph) ~trees:lazy_tree_cap z.store }

module For_testing = struct
  let set_caps t ~pairs ~trees = For_testing.set_caps t.store ~pairs ~trees
end
