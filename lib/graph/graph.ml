(* CSR (compressed sparse row) adjacency. The directed half-edges of all
   vertices live in three flat arrays: the half-edges of vertex [u] occupy
   the contiguous slice [off.(u) .. off.(u+1) - 1], and port [p] of [u] is
   the flat index [off.(u) + p]. Offsets and endpoints are int32 bigarrays
   (so n and 2m are bounded by [Int32.max_int]); weights are a float64
   [float array] or, on request, a float32 bigarray. Hot loops (Dijkstra,
   BFS) read the arrays through {!csr} — one bounds-checked load per edge,
   no per-vertex array dereference and no closure allocation.

   Invariant relied on throughout: within each vertex slice the neighbors
   are strictly ascending. Every constructor establishes it
   ([Builder.finish] sorts, [apply_delta] merges ascending, [reweight]
   keeps the slices), so [port_to] is a binary search over the [dst]
   slice itself — no side index needed. *)

type int32_array = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
type float32_array = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

type weights = W64 of float array | W32 of float32_array

type csr = { off : int32_array; dst : int32_array; wgt : weights }

type t = {
  n : int;
  m : int;
  csr : csr;
  unit_weighted : bool;
}

let csr_limit = Int32.to_int Int32.max_int

let i32 (a : int32_array) i = Int32.to_int (Bigarray.Array1.get a i)

let set32 (a : int32_array) i x = Bigarray.Array1.set a i (Int32.of_int x)

let int32_array len : int32_array =
  Bigarray.Array1.create Bigarray.Int32 Bigarray.C_layout len

let[@inline] weight w i =
  match w with
  | W64 a -> a.(i)
  | W32 b -> Bigarray.Array1.get b i

let float32_weights len =
  W32 (Bigarray.Array1.create Bigarray.Float32 Bigarray.C_layout len)

(* Fresh weights of [len] entries, stored like [like]. *)
let weights_like like len =
  match like with
  | W64 _ -> W64 (Array.make len 0.0)
  | W32 _ -> float32_weights len

(* Store [x] at [i]. A float32 store rounds it, and the rounded weight must
   stay finite and positive. *)
let set_weight ~who w i x =
  match w with
  | W64 a -> a.(i) <- x
  | W32 b ->
    Bigarray.Array1.set b i x;
    let r = Bigarray.Array1.get b i in
    if not (r > 0.0 && Float.is_finite r) then
      invalid_arg (who ^ ": weight not representable as float32")

let to_float32 ~who a =
  let w = float32_weights (Array.length a) in
  Array.iteri (set_weight ~who w) a;
  w

let unit_weights w len =
  let unit = ref true in
  for i = 0 to len - 1 do
    if weight w i <> 1.0 then unit := false
  done;
  !unit

let csr g = g.csr

let n g = g.n

let m g = g.m

let degree g u = i32 g.csr.off (u + 1) - i32 g.csr.off u

let max_degree g =
  let best = ref 0 in
  for u = 0 to g.n - 1 do
    let d = degree g u in
    if d > !best then best := d
  done;
  !best

let avg_degree g =
  if g.n = 0 then 0.0 else 2.0 *. float_of_int g.m /. float_of_int g.n

let storage_bytes g =
  (* Payload bytes of the CSR triple (headers excluded): what the [scale]
     bench reports as graph bytes/vertex. *)
  let { off; dst; wgt } = g.csr in
  (4 * (Bigarray.Array1.dim off + Bigarray.Array1.dim dst))
  + (match wgt with
    | W64 a -> 8 * Array.length a
    | W32 b -> 4 * Bigarray.Array1.dim b)

let endpoint g u p =
  if p < 0 || p >= degree g u then invalid_arg "Graph.endpoint: bad port";
  i32 g.csr.dst (i32 g.csr.off u + p)

let port_weight g u p =
  if p < 0 || p >= degree g u then invalid_arg "Graph.port_weight: bad port";
  weight g.csr.wgt (i32 g.csr.off u + p)

(* Binary search for [v] in the (ascending) slice of [u]. Neighbors are
   unique, so the first hit is the only hit; the port is the offset of the
   hit inside the slice. *)
let port_to g u v =
  let { off; dst; _ } = g.csr in
  let base = i32 off u in
  let lo = ref base and hi = ref (i32 off (u + 1) - 1) in
  let found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let x = i32 dst mid in
    if x = v then begin
      found := mid - base;
      lo := !hi + 1
    end
    else if x < v then lo := mid + 1
    else hi := mid - 1
  done;
  if !found < 0 then None else Some !found

let has_edge g u v = port_to g u v <> None

let edge_weight g u v =
  match port_to g u v with
  | None -> None
  | Some p -> Some (weight g.csr.wgt (i32 g.csr.off u + p))

let neighbors g u =
  let { off; dst; wgt } = g.csr in
  let base = i32 off u in
  List.init (degree g u) (fun p -> (i32 dst (base + p), weight wgt (base + p)))

let iter_neighbors g u f =
  let { off; dst; wgt } = g.csr in
  let base = i32 off u in
  for idx = base to i32 off (u + 1) - 1 do
    f ~port:(idx - base) ~v:(i32 dst idx) ~w:(weight wgt idx)
  done

let fold_edges f g acc =
  let { off; dst; wgt } = g.csr in
  let acc = ref acc in
  for u = 0 to g.n - 1 do
    for idx = i32 off u to i32 off (u + 1) - 1 do
      let v = i32 dst idx in
      if u < v then acc := f u v (weight wgt idx) !acc
    done
  done;
  !acc

(* Edges come out of [fold_edges] with unique [(u, v)] keys ([u < v]), so
   an int-pair comparison is a total order here and agrees with the
   polymorphic [compare] the sort used to rely on. *)
let compare_edge (u1, v1, _) (u2, v2, _) =
  if u1 <> u2 then Int.compare u1 u2 else Int.compare v1 v2

let edges g =
  fold_edges (fun u v w acc -> (u, v, w) :: acc) g []
  |> List.sort compare_edge

let is_unit_weighted g = g.unit_weighted

let min_edge_weight g =
  if g.m = 0 then invalid_arg "Graph.min_edge_weight: no edges";
  fold_edges (fun _ _ w acc -> Float.min w acc) g infinity

let max_edge_weight g =
  if g.m = 0 then invalid_arg "Graph.max_edge_weight: no edges";
  fold_edges (fun _ _ w acc -> Float.max w acc) g neg_infinity

let pack ?(float32 = false) g =
  match g.csr.wgt with
  | W64 a when float32 ->
    let wgt = to_float32 ~who:"Graph.pack" a in
    { g with csr = { g.csr with wgt };
      unit_weighted = unit_weights wgt (2 * g.m) }
  | W64 _ | W32 _ -> g

(* --- construction -------------------------------------------------------

   Every constructor goes through [Builder]: [add_edge] buffers the edges
   in flat arrays, and [finish] buckets the half-edges by tail (degree
   count, prefix sums, fill), then sorts each vertex slice by
   (neighbor, weight) and keeps the first entry of every neighbor run —
   the minimum weight per pair, symmetrically on both endpoints —
   compacting the slices in place. Every vertex numbers its ports in
   ascending neighbor order. *)

let validate_edge ~who u v w =
  if u < 0 || v < 0 then invalid_arg (who ^ ": negative vertex id");
  if u = v then invalid_arg (who ^ ": self-loop");
  if not (w > 0.0) then invalid_arg (who ^ ": non-positive weight")

module Builder = struct
  type t = {
    mutable eu : int array;
    mutable ev : int array;
    mutable ew : float array;
    mutable len : int;
    mutable max_id : int;
    declared_n : int option;
  }

  let create ?n ?(hint = 1024) () =
    (match n with
    | Some n when n < 0 -> invalid_arg "Graph.Builder.create: negative n"
    | _ -> ());
    let cap = max 16 hint in
    { eu = Array.make cap 0;
      ev = Array.make cap 0;
      ew = Array.make cap 0.0;
      len = 0;
      max_id = -1;
      declared_n = n }

  let grow b =
    let cap = Array.length b.eu in
    let cap' = 2 * cap in
    let eu = Array.make cap' 0 and ev = Array.make cap' 0 in
    let ew = Array.make cap' 0.0 in
    Array.blit b.eu 0 eu 0 cap;
    Array.blit b.ev 0 ev 0 cap;
    Array.blit b.ew 0 ew 0 cap;
    b.eu <- eu;
    b.ev <- ev;
    b.ew <- ew

  let add_edge b u v w =
    validate_edge ~who:"Graph.Builder.add_edge" u v w;
    (match b.declared_n with
    | Some n when u >= n || v >= n ->
      invalid_arg "Graph.Builder.add_edge: vertex id exceeds n"
    | _ -> ());
    if b.len = Array.length b.eu then grow b;
    b.eu.(b.len) <- u;
    b.ev.(b.len) <- v;
    b.ew.(b.len) <- w;
    b.len <- b.len + 1;
    if u > b.max_id then b.max_id <- u;
    if v > b.max_id then b.max_id <- v

  let count b = b.len

  let finish ?n:n_override ?(float32 = false) b =
    let n =
      match (n_override, b.declared_n) with
      | Some n, _ ->
        if n < b.max_id + 1 then
          invalid_arg "Graph.Builder.finish: vertex id exceeds n";
        n
      | None, Some n -> n
      | None, None -> b.max_id + 1
    in
    (* Before any allocation: n and the 2 * len half-edges (an upper
       bound on 2m) must be int32-indexable. *)
    if n > csr_limit || b.len > csr_limit / 2 then
      invalid_arg "Graph.Builder.finish: n or 2m exceeds Int32.max_int";
    let off = Array.make (n + 1) 0 in
    for i = 0 to b.len - 1 do
      off.(b.eu.(i) + 1) <- off.(b.eu.(i) + 1) + 1;
      off.(b.ev.(i) + 1) <- off.(b.ev.(i) + 1) + 1
    done;
    for u = 0 to n - 1 do
      off.(u + 1) <- off.(u + 1) + off.(u)
    done;
    let fill = Array.sub off 0 (max n 1) in
    let half = 2 * b.len in
    let dst = int32_array half in
    let wgt = Array.make half 0.0 in
    for i = 0 to b.len - 1 do
      let u = b.eu.(i) and v = b.ev.(i) and w = b.ew.(i) in
      set32 dst fill.(u) v;
      wgt.(fill.(u)) <- w;
      fill.(u) <- fill.(u) + 1;
      set32 dst fill.(v) u;
      wgt.(fill.(v)) <- w;
      fill.(v) <- fill.(v) + 1
    done;
    let off' = int32_array (n + 1) in
    set32 off' 0 0;
    let wp = ref 0 in
    for u = 0 to n - 1 do
      let base = off.(u) in
      let deg = off.(u + 1) - base in
      let perm = Array.init deg (fun p -> p) in
      Array.sort
        (fun p q ->
          let c = Int.compare (i32 dst (base + p)) (i32 dst (base + q)) in
          if c <> 0 then c else Float.compare wgt.(base + p) wgt.(base + q))
        perm;
      let nd = Array.map (fun p -> i32 dst (base + p)) perm in
      let nw = Array.map (fun p -> wgt.(base + p)) perm in
      (* [!wp <= base] always (earlier slices only shrank), so writing the
         kept entries back never clobbers an unread slice. *)
      for i = 0 to deg - 1 do
        if i = 0 || nd.(i) <> nd.(i - 1) then begin
          set32 dst !wp nd.(i);
          wgt.(!wp) <- nw.(i);
          incr wp
        end
      done;
      set32 off' (u + 1) !wp
    done;
    let total = !wp in
    let dst =
      if total = half then dst
      else begin
        let d = int32_array total in
        Bigarray.Array1.blit (Bigarray.Array1.sub dst 0 total) d;
        d
      end
    in
    let wgt = if total = half then wgt else Array.sub wgt 0 total in
    let wgt =
      if float32 then to_float32 ~who:"Graph.Builder.finish" wgt else W64 wgt
    in
    { n; m = total / 2; csr = { off = off'; dst; wgt };
      unit_weighted = unit_weights wgt total }
end

let of_edges ?n edge_list =
  let b = Builder.create ?n ~hint:(max 16 (List.length edge_list)) () in
  List.iter
    (fun (u, v, w) ->
      validate_edge ~who:"Graph.of_edges" u v w;
      (match n with
      | Some n when u >= n || v >= n ->
        invalid_arg "Graph.of_edges: vertex id exceeds n"
      | _ -> ());
      Builder.add_edge b u v w)
    edge_list;
  Builder.finish b

let of_unweighted_edges ?n edge_list =
  of_edges ?n (List.map (fun (u, v) -> (u, v, 1.0)) edge_list)

(* --- batched deltas ----------------------------------------------------

   Every constructor numbers the ports of each vertex in ascending
   neighbor order (see the invariant at the top of the file).
   [apply_delta] rebuilds each slice by an ascending merge, which
   therefore reproduces exactly the numbering a fresh [of_edges] over the
   edited edge list would produce — and an untouched vertex keeps its
   slice (and every port) verbatim. *)

type delta_op =
  | Insert of int * int * float
  | Remove of int * int
  | Reweight of int * int * float

let apply_delta g ops =
  if ops = [] then g
  else begin
    let who = "Graph.apply_delta" in
    let { off; dst; wgt } = g.csr in
    (* Validate and key each op by its unordered pair; at most one op per
       pair per batch, so sequential and batch application agree. *)
    let tbl = Hashtbl.create (2 * List.length ops) in
    let pair_key kind u v =
      if u < 0 || u >= g.n || v < 0 || v >= g.n then
        invalid_arg
          (Printf.sprintf "Graph.apply_delta: %s (%d, %d): vertex out of range"
             kind u v);
      if u = v then
        invalid_arg
          (Printf.sprintf "Graph.apply_delta: %s (%d, %d): self-loop" kind u v);
      let key = (min u v, max u v) in
      if Hashtbl.mem tbl key then
        invalid_arg
          (Printf.sprintf "Graph.apply_delta: duplicate op on pair (%d, %d)"
             (fst key) (snd key));
      key
    in
    List.iter
      (fun op ->
        match op with
        | Insert (u, v, w) ->
          let key = pair_key "insert" u v in
          if not (w > 0.0) then
            invalid_arg
              (Printf.sprintf
                 "Graph.apply_delta: insert (%d, %d): non-positive weight" u v);
          if has_edge g u v then
            invalid_arg
              (Printf.sprintf
                 "Graph.apply_delta: insert (%d, %d): edge already present" u v);
          Hashtbl.replace tbl key op
        | Remove (u, v) ->
          let key = pair_key "remove" u v in
          if not (has_edge g u v) then
            invalid_arg
              (Printf.sprintf "Graph.apply_delta: remove (%d, %d): not an edge"
                 u v);
          Hashtbl.replace tbl key op
        | Reweight (u, v, w) ->
          let key = pair_key "reweight" u v in
          if not (w > 0.0) then
            invalid_arg
              (Printf.sprintf
                 "Graph.apply_delta: reweight (%d, %d): non-positive weight" u v);
          if not (has_edge g u v) then
            invalid_arg
              (Printf.sprintf
                 "Graph.apply_delta: reweight (%d, %d): not an edge" u v);
          Hashtbl.replace tbl key op)
      ops;
    (* Per-vertex structural changes. *)
    let ins = Array.make g.n [] in
    let rem = Array.make g.n [] in
    let n_ins = ref 0 and n_rem = ref 0 in
    Hashtbl.iter
      (fun (a, b) op ->
        match op with
        | Insert (_, _, w) ->
          ins.(a) <- (b, w) :: ins.(a);
          ins.(b) <- (a, w) :: ins.(b);
          incr n_ins
        | Remove _ ->
          rem.(a) <- b :: rem.(a);
          rem.(b) <- a :: rem.(b);
          incr n_rem
        | Reweight _ -> ())
      tbl;
    let m' = g.m + !n_ins - !n_rem in
    let off' = int32_array (g.n + 1) in
    set32 off' 0 0;
    for u = 0 to g.n - 1 do
      set32 off' (u + 1)
        (i32 off' u + (i32 off (u + 1) - i32 off u) + List.length ins.(u)
        - List.length rem.(u))
    done;
    let dst' = int32_array (2 * m') in
    let wgt' = weights_like wgt (2 * m') in
    (* Each slice is the merge of the (ascending) old slice with the
       sorted inserts, skipping removed neighbors: the canonical ascending
       numbering of the new neighbor set. *)
    let idx = ref 0 and pending = ref [] in
    let emit v w =
      set32 dst' !idx v;
      set_weight ~who wgt' !idx w;
      incr idx
    in
    let rec flush_below v =
      match !pending with
      | (x, w) :: rest when x < v ->
        emit x w;
        pending := rest;
        flush_below v
      | _ -> ()
    in
    for u = 0 to g.n - 1 do
      let base = i32 off u and deg = i32 off (u + 1) - i32 off u in
      idx := i32 off' u;
      pending := List.sort (fun (a, _) (b, _) -> Int.compare a b) ins.(u);
      for p = 0 to deg - 1 do
        let v = i32 dst (base + p) in
        if not (List.mem v rem.(u)) then begin
          flush_below v;
          emit v (weight wgt (base + p))
        end
      done;
      List.iter (fun (x, w) -> emit x w) !pending;
      assert (!idx = i32 off' (u + 1))
    done;
    let g' =
      { n = g.n; m = m'; csr = { off = off'; dst = dst'; wgt = wgt' };
        unit_weighted = false }
    in
    (* Reweights last: the port numbering is weight-independent, so the
       surviving edge is located through the new graph's own [port_to]. *)
    Hashtbl.iter
      (fun (a, b) op ->
        match op with
        | Reweight (_, _, w) -> (
          match (port_to g' a b, port_to g' b a) with
          | Some p, Some q ->
            set_weight ~who wgt' (i32 off' a + p) w;
            set_weight ~who wgt' (i32 off' b + q) w
          | _ -> assert false)
        | _ -> ())
      tbl;
    { g' with unit_weighted = unit_weights wgt' (2 * m') }
  end

(* The slices, and so every port, are the same: only the weights are new. *)
let reweight g f =
  let who = "Graph.reweight" in
  let { off; dst; wgt = wgt0 } = g.csr in
  let wgt = weights_like wgt0 (2 * g.m) in
  for u = 0 to g.n - 1 do
    for idx = i32 off u to i32 off (u + 1) - 1 do
      let v = i32 dst idx in
      if u < v then begin
        let w = f u v (weight wgt0 idx) in
        if not (w > 0.0) then invalid_arg (who ^ ": non-positive weight");
        set_weight ~who wgt idx w;
        (* Mirror onto v's (unique) port back to u. *)
        match port_to g v u with
        | Some q -> set_weight ~who wgt (i32 off v + q) w
        | None -> assert false
      end
    done
  done;
  { g with csr = { g.csr with wgt };
    unit_weighted = unit_weights wgt (2 * g.m) }

let unit_weighted g = reweight g (fun _ _ _ -> 1.0)

let subgraph_of_edges g kept =
  let b = Builder.create ~n:g.n ~hint:(List.length kept) () in
  List.iter
    (fun (u, v) ->
      match edge_weight g u v with
      | Some w -> Builder.add_edge b u v w
      | None -> invalid_arg "Graph.subgraph_of_edges: edge absent")
    kept;
  Builder.finish
    ~float32:(match g.csr.wgt with W32 _ -> true | W64 _ -> false)
    b

let pp fmt g =
  Format.fprintf fmt "graph(n=%d, m=%d, %s)" g.n g.m
    (if g.unit_weighted then "unit" else "weighted")
