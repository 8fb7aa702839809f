open Cr_graph

(* [| dfs; at_lo; sub_lo; sub_hi; port; ... |]: the member's DFS number,
   then one four-int entry per light edge on the root-to-member path, root
   first: the DFS number of the edge's parent end, the child's subtree
   interval, and the parent's port toward the child. *)
type label = int array

(* Every array is indexed by a member's local number [d], its heavy-first
   preorder DFS number: the root is 0, [d]'s subtree is the interval
   [d, hi d], its heavy child (if any) is [d + 1] and its other children
   follow at [hi (d + 1) + 1], ... up to [hi d]. *)
type t = {
  vertices : int array;       (* d -> vertex; the root is vertices.(0) *)
  index : Compiled.Intmap.t;  (* vertex -> d *)
  recs : int array;
      (* stride 4: hi, port toward the parent (-1 at the root), port toward
         the heavy child (-1 at a leaf), the parent's port toward d (-1 at
         the root) *)
  parent : int array;         (* parent's d, -1 at the root *)
  depth : int array;
  weight : float array;       (* weight of the edge to the parent, 0 at root *)
  labels : label array;
  max_port : int;             (* widest port mentioned anywhere *)
}

let build g ~root ~members ~parent =
  let k = Array.length members in
  if k = 0 then invalid_arg "Tree_routing.build: empty tree";
  (* Scratch arrays are indexed by input position [i] until the DFS
     numbers exist. *)
  let pos =
    try Compiled.Intmap.of_pairs (Array.mapi (fun i v -> (v, i)) members)
    with Invalid_argument _ -> invalid_arg "Tree_routing.build: duplicate member"
  in
  let root_i =
    match Compiled.Intmap.find_opt pos root with
    | Some i -> i
    | None -> invalid_arg "Tree_routing.build: root not a member"
  in
  let up = Array.make k (-1) in
  let off = Array.make (k + 1) 0 in
  Array.iteri
    (fun i v ->
      if v <> root then
        match Compiled.Intmap.find_opt pos (parent v) with
        | None -> invalid_arg "Tree_routing.build: parent not a member"
        | Some p ->
          up.(i) <- p;
          off.(p + 1) <- off.(p + 1) + 1)
    members;
  (* Children CSR: [i]'s children are kids.(off.(i)) .. kids.(off.(i+1)-1). *)
  for i = 1 to k do
    off.(i) <- off.(i) + off.(i - 1)
  done;
  let kids = Array.make k 0 in
  let fill = Array.sub off 0 k in
  for i = 0 to k - 1 do
    let p = up.(i) in
    if p >= 0 then begin
      kids.(fill.(p)) <- i;
      fill.(p) <- fill.(p) + 1
    end
  done;
  (* Any preorder from the root; a member it misses is cut off from it. *)
  let stack = Array.make k 0 and sp = ref 1 in
  let order = Array.make k 0 and reached = ref 0 in
  stack.(0) <- root_i;
  while !sp > 0 do
    decr sp;
    let i = stack.(!sp) in
    order.(!reached) <- i;
    incr reached;
    for j = off.(i) to off.(i + 1) - 1 do
      stack.(!sp) <- kids.(j);
      incr sp
    done
  done;
  if !reached <> k then invalid_arg "Tree_routing.build: disconnected tree";
  let size = Array.make k 1 in
  for j = k - 1 downto 1 do
    let i = order.(j) in
    size.(up.(i)) <- size.(up.(i)) + size.(i)
  done;
  (* Heavy-first child order: by (subtree size desc, vertex id asc). *)
  let heavy_first a b =
    if size.(a) <> size.(b) then Int.compare size.(b) size.(a)
    else Int.compare members.(a) members.(b)
  in
  for i = 0 to k - 1 do
    let c = off.(i + 1) - off.(i) in
    if c > 1 then begin
      let s = Array.sub kids off.(i) c in
      Array.sort heavy_first s;
      Array.blit s 0 kids off.(i) c
    end
  done;
  (* Heavy-first preorder: [order] now maps d to [i], [dfs] the reverse. *)
  let dfs = Array.make k 0 in
  sp := 1;
  reached := 0;
  stack.(0) <- root_i;
  while !sp > 0 do
    decr sp;
    let i = stack.(!sp) in
    dfs.(i) <- !reached;
    order.(!reached) <- i;
    incr reached;
    for j = off.(i + 1) - 1 downto off.(i) do
      stack.(!sp) <- kids.(j);
      incr sp
    done
  done;
  let port_between u v =
    match Graph.port_to g u v with
    | Some p -> p
    | None -> invalid_arg "Tree_routing.build: tree edge absent from graph"
  in
  let vertices = Array.make k root in
  let recs = Array.make (4 * k) (-1) in
  let parent_d = Array.make k (-1) in
  let depth = Array.make k 0 in
  let weight = Array.make k 0.0 in
  let labels = Array.make k [| 0 |] in
  let max_port = ref 0 in
  (* In preorder, so a parent is complete before its children. *)
  for d = 0 to k - 1 do
    let i = order.(d) in
    let v = members.(i) in
    vertices.(d) <- v;
    let h = d + size.(i) - 1 in
    recs.(4 * d) <- h;
    if i <> root_i then begin
      let p = dfs.(up.(i)) in
      let pv = vertices.(p) in
      let to_parent = port_between v pv and from_parent = port_between pv v in
      max_port := max !max_port (max to_parent from_parent);
      recs.((4 * d) + 1) <- to_parent;
      recs.((4 * d) + 3) <- from_parent;
      parent_d.(d) <- p;
      depth.(d) <- depth.(p) + 1;
      weight.(d) <- Graph.port_weight g v to_parent;
      let lp = labels.(p) in
      if d = p + 1 then begin
        (* The heavy child: the parent's light edges, its own number. *)
        recs.((4 * p) + 2) <- from_parent;
        let l = Array.copy lp in
        l.(0) <- d;
        labels.(d) <- l
      end
      else begin
        let m = Array.length lp in
        let l = Array.make (m + 4) 0 in
        Array.blit lp 0 l 0 m;
        l.(0) <- d;
        l.(m) <- p;
        l.(m + 1) <- d;
        l.(m + 2) <- h;
        l.(m + 3) <- from_parent;
        labels.(d) <- l
      end
    end
  done;
  let index = Compiled.Intmap.of_pairs (Array.mapi (fun d v -> (v, d)) vertices) in
  {
    vertices;
    index;
    recs;
    parent = parent_d;
    depth;
    weight;
    labels;
    max_port = !max_port;
  }

let of_tree g (tr : Dijkstra.tree) =
  build g ~root:tr.source ~members:tr.order ~parent:(fun v -> tr.parent.(v))

let root t = t.vertices.(0)

let members t = t.vertices

let mem t v = Compiled.Intmap.mem t.index v

let idx t v = Compiled.Intmap.find t.index v

let label t v = t.labels.(idx t v)

let label_words (l : label) = Array.length l

(* Lemma 3's per-member record as the paper counts it: the member's
   interval, its parent port, its heavy child's interval and port, and the
   root. The flat layout reads some of these off neighbouring records; the
   accounted words stay 7. *)
let table_words _t _v = 7

let dfs_bits t = Bits.bits_for (Array.length t.vertices)

let port_bits t = Bits.bits_for (t.max_port + 1)

let lights (l : label) = (Array.length l - 1) / 4

let encode_label t (l : label) =
  let w = Bits.writer () in
  let db = dfs_bits t and pb = port_bits t in
  Bits.push w ~bits:db l.(0);
  Bits.push_gamma w (lights l);
  for e = 0 to lights l - 1 do
    let b = 1 + (4 * e) in
    Bits.push w ~bits:db l.(b);
    Bits.push w ~bits:db l.(b + 1);
    Bits.push w ~bits:db l.(b + 2);
    Bits.push w ~bits:pb l.(b + 3)
  done;
  (Bits.contents w, Bits.length w)

let decode_label t data =
  let r = Bits.reader data in
  let db = dfs_bits t and pb = port_bits t in
  let dfs = Bits.pull r ~bits:db in
  let count = Bits.pull_gamma r in
  let l = Array.make (1 + (4 * count)) dfs in
  for e = 0 to count - 1 do
    let b = 1 + (4 * e) in
    l.(b) <- Bits.pull r ~bits:db;
    l.(b + 1) <- Bits.pull r ~bits:db;
    l.(b + 2) <- Bits.pull r ~bits:db;
    l.(b + 3) <- Bits.pull r ~bits:pb
  done;
  l

let label_bits t v =
  let _, bits = encode_label t (label t v) in
  bits

let interval_table_words t v =
  let d = idx t v in
  let h = t.recs.(4 * d) in
  let rec count c acc = if c > h then acc else count (t.recs.(4 * c) + 1) (acc + 1) in
  2 + (3 * count (d + 1) 0)

let depth t v = t.depth.(idx t v)

let tree_dist t u v =
  (* Walk both members up to their LCA using depths. *)
  let rec lift i target acc =
    if t.depth.(i) = target then (i, acc)
    else lift t.parent.(i) target (acc +. t.weight.(i))
  in
  let rec meet i j acc =
    if i = j then acc
    else meet t.parent.(i) t.parent.(j) (acc +. t.weight.(i) +. t.weight.(j))
  in
  let i = idx t u and j = idx t v in
  let target = min t.depth.(i) t.depth.(j) in
  let i, acc_i = lift i target 0.0 in
  let j, acc_j = lift j target 0.0 in
  acc_i +. acc_j +. meet i j 0.0

let step t ~at (l : label) =
  let d = idx t at in
  let x = l.(0) in
  if x = d then `Deliver
  else if x < d || x > t.recs.(4 * d) then `Forward t.recs.((4 * d) + 1)
  else if x <= t.recs.(4 * (d + 1)) then `Forward t.recs.((4 * d) + 2)
  else begin
    (* The next edge is a light edge out of [at]; its port is in the label. *)
    let rec find b =
      if b >= Array.length l then invalid_arg "Tree_routing.step: corrupt label"
      else if l.(b) = d then l.(b + 3)
      else find (b + 4)
    in
    `Forward (find 1)
  end

let step_interval t ~at (l : label) =
  let d = idx t at in
  let x = l.(0) in
  if x = d then `Deliver
  else if x < d || x > t.recs.(4 * d) then `Forward t.recs.((4 * d) + 1)
  else begin
    (* Children in heavy-first order; their intervals tile (d, hi d]. *)
    let rec find c =
      let h = t.recs.(4 * c) in
      if x <= h then t.recs.((4 * c) + 3) else find (h + 1)
    in
    `Forward (find (d + 1))
  end
