type tree = {
  source : int;
  dist : float array;
  parent : int array;
  parent_port : int array;
  first_port : int array;
  order : int array;
}

(* The weight of half-edge [i]. It is [Graph.weight], read here because a
   float returned by another module's function is boxed wherever that
   function is not inlined, and a build with [-opaque] inlines nothing
   across modules. With [Heap.insert_or_decrease_from] and [Heap.pop_key]
   it keeps every pop and relaxation below allocation-free. *)
let[@inline] weight (w : Graph.weights) i =
  match w with
  | W64 a -> a.(i)
  | W32 b -> Bigarray.Array1.get b i

(* ------------------------------------------------------------------ *)
(* Reusable workspace                                                  *)
(* ------------------------------------------------------------------ *)

(* All per-search scratch state, allocated once and reused across calls.
   [stamp]/[gen] track which vertices the current search has written, so a
   reset costs O(touched), not O(n): a workspace running n truncated
   searches of size l does O(n l) reset work instead of O(n^2). *)
type workspace = {
  ws_dist : float array;
  ws_parent : int array;
  ws_parent_port : int array;
  ws_first_port : int array;
  ws_order : int array;
  ws_settled : bool array;
  ws_heap : Heap.t;
  ws_stamp : int array;      (* stamp.(v) = gen iff v touched this search *)
  ws_touched : int array;
  mutable ws_ntouched : int;
  mutable ws_gen : int;
}

let workspace n =
  if n < 0 then invalid_arg "Dijkstra.workspace";
  {
    ws_dist = Array.make n infinity;
    ws_parent = Array.make n (-1);
    ws_parent_port = Array.make n (-1);
    ws_first_port = Array.make n (-1);
    ws_order = Array.make n (-1);
    ws_settled = Array.make n false;
    ws_heap = Heap.create n;
    ws_stamp = Array.make n 0;
    ws_touched = Array.make n (-1);
    ws_ntouched = 0;
    ws_gen = 0;
  }

let touch ws v =
  if ws.ws_stamp.(v) <> ws.ws_gen then begin
    ws.ws_stamp.(v) <- ws.ws_gen;
    ws.ws_touched.(ws.ws_ntouched) <- v;
    ws.ws_ntouched <- ws.ws_ntouched + 1
  end

let reset ws =
  for i = 0 to ws.ws_ntouched - 1 do
    let v = ws.ws_touched.(i) in
    ws.ws_dist.(v) <- infinity;
    ws.ws_parent.(v) <- -1;
    ws.ws_parent_port.(v) <- -1;
    ws.ws_first_port.(v) <- -1;
    ws.ws_settled.(v) <- false
  done;
  ws.ws_ntouched <- 0;
  Heap.clear ws.ws_heap

(* Core loop shared by all single-source variants. A popped vertex [u] is
   settled iff [dist.(u) < limit.(u)] (every vertex when [limit] is
   absent); returns the number of settled vertices (a prefix of
   [ws_order]). The caller must [reset] the workspace when done with the
   scratch arrays.

   [scan] is a closure bound to the graph's CSR arrays, so the per-edge
   work reads them directly. A popped vertex's distance is read from
   [dist], which always equals its heap priority, and compared with its
   limit in place, so a pop allocates nothing.

   [stop_at] (default [-1], i.e. never) halts the search right after that
   vertex is settled and scanned. The settled prefix is exactly the set of
   vertices closer than [stop_at] under [(dist, id)] order, each with its
   final distance and parent — the standard Dijkstra invariant — so a
   caller that only reads vertices it knows settle before [stop_at] sees
   data identical to a full run. *)
let run_core ?(stop_at = -1) ?limit ws g s =
  ws.ws_gen <- ws.ws_gen + 1;
  let dist = ws.ws_dist
  and parent = ws.ws_parent
  and parent_port = ws.ws_parent_port
  and first_port = ws.ws_first_port
  and order = ws.ws_order
  and settled = ws.ws_settled
  and heap = ws.ws_heap in
  let { Graph.off; dst; wgt } = Graph.csr g in
  let scan u =
    let d = dist.(u) in
    let base = Int32.to_int (Bigarray.Array1.get off u) in
    let stop = Int32.to_int (Bigarray.Array1.get off (u + 1)) - 1 in
    for idx = base to stop do
      let v = Int32.to_int (Bigarray.Array1.get dst idx) in
      let d' = d +. weight wgt idx in
      if (not settled.(v)) && d' < dist.(v) then begin
        touch ws v;
        dist.(v) <- d';
        parent.(v) <- u;
        let port = idx - base in
        parent_port.(v) <- port;
        first_port.(v) <- (if u = s then port else first_port.(u));
        Heap.insert_or_decrease_from heap v dist
      end
    done
  in
  touch ws s;
  dist.(s) <- 0.0;
  Heap.insert heap s 0.0;
  let count = ref 0 in
  let continue = ref true in
  while !continue do
    let u = Heap.pop_key heap in
    if u < 0 then continue := false
    else if
      match limit with None -> true | Some lim -> dist.(u) < lim.(u)
    then begin
      settled.(u) <- true;
      order.(!count) <- u;
      incr count;
      scan u;
      if u = stop_at then continue := false
    end
    else dist.(u) <- infinity
    (* A rejected vertex keeps [infinity] so callers can treat it as
       outside the tree; it may be re-relaxed only through other rejected
       vertices, and is rejected again. *)
  done;
  !count

(* A borrowed view over the workspace arrays; only [order] is fresh. *)
let borrowed_tree ws s count =
  {
    source = s;
    dist = ws.ws_dist;
    parent = ws.ws_parent;
    parent_port = ws.ws_parent_port;
    first_port = ws.ws_first_port;
    order = Array.sub ws.ws_order 0 count;
  }

let with_tree ?stop_at ?limit ws g s f =
  let count = run_core ?stop_at ?limit ws g s in
  Fun.protect
    ~finally:(fun () -> reset ws)
    (fun () -> f (borrowed_tree ws s count))

let with_spt ws g s f = with_tree ws g s f

let with_spt_until ws g s ~until f = with_tree ~stop_at:until ws g s f

let with_restricted ws g w ~limit f = with_tree ~limit ws g w f

(* The allocating entry points run in a throwaway workspace and hand its
   arrays to the caller directly — same cost profile as before workspaces
   existed, and the returned tree owns its arrays. *)
let owned_run ?limit g s =
  let ws = workspace (Graph.n g) in
  let count = run_core ?limit ws g s in
  borrowed_tree ws s count

let spt g s = owned_run g s

let restricted g w ~limit = owned_run ~limit g w

let path_to t v =
  if t.dist.(v) = infinity then invalid_arg "Dijkstra.path_to: unreachable";
  let rec up v acc = if v = t.source then v :: acc else up t.parent.(v) (v :: acc) in
  up v []

let path_from t x = List.rev (path_to t x)

(* ------------------------------------------------------------------ *)
(* Truncated search                                                    *)
(* ------------------------------------------------------------------ *)

type truncated = {
  src : int;
  vertices : int array;
  dists : float array;
  parents : int array;
  first_ports : int array;
  next_dist : float option;
}

let truncated_ws ws g s l =
  let l = max l 1 in
  ws.ws_gen <- ws.ws_gen + 1;
  let dist = ws.ws_dist
  and parent = ws.ws_parent
  and first_port = ws.ws_first_port
  and order = ws.ws_order
  and settled = ws.ws_settled
  and heap = ws.ws_heap in
  let { Graph.off; dst; wgt } = Graph.csr g in
  touch ws s;
  dist.(s) <- 0.0;
  Heap.insert heap s 0.0;
  let count = ref 0 in
  (* Edges are relaxed inline, with no closure, and a pop or a relaxation
     allocates nothing: a search allocates only what it returns. *)
  while !count < l && not (Heap.is_empty heap) do
    let u = Heap.pop_key heap in
    settled.(u) <- true;
    order.(!count) <- u;
    incr count;
    let d = dist.(u) in
    let base = Int32.to_int (Bigarray.Array1.get off u) in
    let stop = Int32.to_int (Bigarray.Array1.get off (u + 1)) - 1 in
    for idx = base to stop do
      let v = Int32.to_int (Bigarray.Array1.get dst idx) in
      let d' = d +. weight wgt idx in
      if (not settled.(v)) && d' < dist.(v) then begin
        touch ws v;
        dist.(v) <- d';
        parent.(v) <- u;
        first_port.(v) <- (if u = s then idx - base else first_port.(u));
        Heap.insert_or_decrease_from heap v dist
      end
    done
  done;
  (* The nearest vertex of the component left out of B(s, l), if any: a
     non-destructive peek — the heap min's tentative distance is final by
     the usual Dijkstra invariant. [None] iff every vertex reachable from
     [s] was settled (the component has at most [l] vertices), which is
     distinct from "the heap happened to empty": the heap can only be empty
     here when the frontier is exhausted. *)
  let next_dist =
    match Heap.peek_min heap with Some (_, d) -> Some d | None -> None
  in
  let k = !count in
  let vertices = Array.sub order 0 k in
  let dists = Array.make k 0.0 in
  let parents = Array.make k (-1) in
  let first_ports = Array.make k (-1) in
  for i = 0 to k - 1 do
    let v = vertices.(i) in
    dists.(i) <- dist.(v);
    parents.(i) <- parent.(v);
    first_ports.(i) <- first_port.(v)
  done;
  reset ws;
  { src = s; vertices; dists; parents; first_ports; next_dist }

let truncated g s l = truncated_ws (workspace (Graph.n g)) g s l

(* ------------------------------------------------------------------ *)
(* Multi-source                                                        *)
(* ------------------------------------------------------------------ *)

type multi = {
  dist_to_set : float array;
  nearest : int array;
  mparent : int array;
}

let multi_source g centers =
  let n = Graph.n g in
  let dist = Array.make n infinity in
  let nearest = Array.make n (-1) in
  let mparent = Array.make n (-1) in
  let settled = Array.make n false in
  let heap = Heap.create n in
  let { Graph.off; dst; wgt } = Graph.csr g in
  let scan u =
    let d = dist.(u) in
    let base = Int32.to_int (Bigarray.Array1.get off u) in
    let stop = Int32.to_int (Bigarray.Array1.get off (u + 1)) - 1 in
    for idx = base to stop do
      let v = Int32.to_int (Bigarray.Array1.get dst idx) in
      let d' = d +. weight wgt idx in
      if not settled.(v) then
        if d' < dist.(v) || (d' = dist.(v) && nearest.(u) < nearest.(v))
        then begin
          dist.(v) <- d';
          nearest.(v) <- nearest.(u);
          mparent.(v) <- u;
          Heap.insert_or_decrease_from heap v dist
        end
    done
  in
  (* Initialize centers in increasing id order so ties prefer smaller ids. *)
  let centers = List.sort_uniq Int.compare centers in
  List.iter
    (fun a ->
      dist.(a) <- 0.0;
      nearest.(a) <- a;
      if not (Heap.mem heap a) then Heap.insert heap a 0.0)
    centers;
  while not (Heap.is_empty heap) do
    let u = Heap.pop_key heap in
    settled.(u) <- true;
    scan u
  done;
  { dist_to_set = dist; nearest; mparent }
