open Cr_graph

(* Per-member heavy-light record. Intervals are [lo, hi] in preorder DFS
   numbers; [lo] doubles as the vertex's own DFS number. *)
type node = {
  vertex : int;
  lo : int;
  hi : int;
  parent_port : int;          (* port toward the tree parent, -1 at root *)
  parent_idx : int;           (* local index of the parent, -1 at root *)
  edge_weight : float;        (* weight of the edge to the parent, 0 at root *)
  heavy_lo : int;             (* -1 when leaf *)
  heavy_hi : int;
  heavy_port : int;
  children : (int * int * int) array; (* (child_lo, child_hi, port), interval scheme *)
  depth : int;
  dist_to_root : float;
}

type light_entry = {
  at_lo : int;  (* DFS number of the parent endpoint of the light edge *)
  sub_lo : int; (* child subtree interval *)
  sub_hi : int;
  port : int;   (* port of the parent toward the child *)
}

type label = { dfs : int; light : light_entry array }

type t = {
  root : int;
  member_list : int array;         (* local idx -> vertex *)
  index : Compiled.Intmap.t;       (* vertex -> local idx *)
  nodes : node array;              (* by local idx *)
  labels : label array;            (* by local idx *)
  by_dfs : int array;              (* dfs number -> local idx *)
  max_port : int;                  (* widest port mentioned anywhere *)
}

let build g ~root ~members ~parent =
  let k = Array.length members in
  if k = 0 then invalid_arg "Tree_routing.build: empty tree";
  let index =
    try Compiled.Intmap.of_pairs (Array.mapi (fun i v -> (v, i)) members)
    with Invalid_argument _ -> invalid_arg "Tree_routing.build: duplicate member"
  in
  let root_idx =
    match Compiled.Intmap.find_opt index root with
    | Some i -> i
    | None -> invalid_arg "Tree_routing.build: root not a member"
  in
  (* Children lists in local index space. *)
  let children = Array.make k [] in
  let parent_idx = Array.make k (-1) in
  Array.iteri
    (fun i v ->
      if v <> root then begin
        let p = parent v in
        match Compiled.Intmap.find_opt index p with
        | None -> invalid_arg "Tree_routing.build: parent not a member"
        | Some pi ->
          parent_idx.(i) <- pi;
          children.(pi) <- i :: children.(pi)
      end)
    members;
  (* Subtree sizes, iteratively (post-order via reverse finish stack). *)
  let size = Array.make k 1 in
  let order = Array.make k (-1) in
  let sp = ref 0 in
  let stack = Stack.create () in
  Stack.push root_idx stack;
  while not (Stack.is_empty stack) do
    let i = Stack.pop stack in
    order.(!sp) <- i;
    incr sp;
    List.iter (fun c -> Stack.push c stack) children.(i)
  done;
  if !sp <> k then invalid_arg "Tree_routing.build: disconnected tree";
  for j = k - 1 downto 1 do
    let i = order.(j) in
    size.(parent_idx.(i)) <- size.(parent_idx.(i)) + size.(i)
  done;
  (* Heavy-first child ordering: by (subtree size desc, vertex id asc). *)
  let sorted_children =
    Array.mapi
      (fun _i cs ->
        List.sort
          (fun a b -> compare (-size.(a), members.(a)) (-size.(b), members.(b)))
          cs)
      children
  in
  (* Preorder DFS assigning intervals. *)
  let lo = Array.make k (-1) and hi = Array.make k (-1) in
  let by_dfs = Array.make k (-1) in
  let counter = ref 0 in
  let stack2 = Stack.create () in
  Stack.push (`Enter root_idx) stack2;
  while not (Stack.is_empty stack2) do
    match Stack.pop stack2 with
    | `Enter i ->
      lo.(i) <- !counter;
      by_dfs.(!counter) <- i;
      incr counter;
      Stack.push (`Exit i) stack2;
      (* Push children in reverse so the heavy child is entered first. *)
      List.iter (fun c -> Stack.push (`Enter c) stack2) (List.rev sorted_children.(i))
    | `Exit i -> hi.(i) <- !counter - 1
  done;
  (* Ports and weights. *)
  let port_between u v =
    match Graph.port_to g u v with
    | Some p -> p
    | None -> invalid_arg "Tree_routing.build: tree edge absent from graph"
  in
  let depth = Array.make k 0 in
  let dist_to_root = Array.make k 0.0 in
  let nodes =
    Array.init k (fun _ ->
        {
          vertex = -1;
          lo = -1;
          hi = -1;
          parent_port = -1;
          parent_idx = -1;
          edge_weight = 0.0;
          heavy_lo = -1;
          heavy_hi = -1;
          heavy_port = -1;
          children = [||];
          depth = 0;
          dist_to_root = 0.0;
        })
  in
  (* Fill in preorder so parents are complete before children. *)
  for d = 0 to k - 1 do
    let i = by_dfs.(d) in
    let v = members.(i) in
    let pi = parent_idx.(i) in
    let parent_port, edge_weight =
      if pi = -1 then (-1, 0.0)
      else begin
        let pv = members.(pi) in
        let p = port_between v pv in
        (p, Graph.port_weight g v p)
      end
    in
    if pi <> -1 then begin
      depth.(i) <- depth.(pi) + 1;
      dist_to_root.(i) <- dist_to_root.(pi) +. edge_weight
    end;
    let child_entries =
      List.map
        (fun c ->
          let cv = members.(c) in
          (lo.(c), hi.(c), port_between v cv))
        sorted_children.(i)
    in
    let heavy_lo, heavy_hi, heavy_port =
      match child_entries with
      | [] -> (-1, -1, -1)
      | (l, h, p) :: _ -> (l, h, p)
    in
    nodes.(i) <-
      {
        vertex = v;
        lo = lo.(i);
        hi = hi.(i);
        parent_port;
        parent_idx = pi;
        edge_weight;
        heavy_lo;
        heavy_hi;
        heavy_port;
        children = Array.of_list child_entries;
        depth = depth.(i);
        dist_to_root = dist_to_root.(i);
      }
  done;
  (* Labels: walk each root->v path accumulating light edges. A child is
     light iff it is not the first (heavy) child of its parent. *)
  let labels = Array.make k { dfs = 0; light = [||] } in
  let light_of = Array.make k [] in
  for d = 0 to k - 1 do
    let i = by_dfs.(d) in
    let pi = parent_idx.(i) in
    if pi = -1 then light_of.(i) <- []
    else begin
      let pn = nodes.(pi) in
      let is_heavy = pn.heavy_lo = lo.(i) in
      if is_heavy then light_of.(i) <- light_of.(pi)
      else begin
        let port =
          (* Find the parent's port to this child from its child table. *)
          let rec find j =
            let l, _, p = pn.children.(j) in
            if l = lo.(i) then p else find (j + 1)
          in
          find 0
        in
        light_of.(i) <-
          { at_lo = pn.lo; sub_lo = lo.(i); sub_hi = hi.(i); port }
          :: light_of.(pi)
      end
    end;
    labels.(i) <- { dfs = lo.(i); light = Array.of_list (List.rev light_of.(i)) }
  done;
  let max_port =
    Array.fold_left
      (fun acc nd ->
        Array.fold_left
          (fun a (_, _, p) -> max a p)
          (max acc nd.parent_port) nd.children)
      0 nodes
  in
  { root; member_list = Array.copy members; index; nodes; labels; by_dfs; max_port }

let of_tree g (tr : Dijkstra.tree) =
  build g ~root:tr.source ~members:tr.order ~parent:(fun v -> tr.parent.(v))

let root t = t.root

let members t = t.member_list

let mem t v = Compiled.Intmap.mem t.index v

let idx t v = Compiled.Intmap.find t.index v

let label t v = t.labels.(idx t v)

let label_words (l : label) = 1 + (4 * Array.length l.light)

let table_words _t _v = 7 (* lo, hi, parent_port, heavy_lo, heavy_hi, heavy_port, root *)

let dfs_bits t = Bits.bits_for (Array.length t.member_list)

let port_bits t = Bits.bits_for (t.max_port + 1)

let encode_label t (l : label) =
  let w = Bits.writer () in
  let db = dfs_bits t and pb = port_bits t in
  Bits.push w ~bits:db l.dfs;
  Bits.push_gamma w (Array.length l.light);
  Array.iter
    (fun e ->
      Bits.push w ~bits:db e.at_lo;
      Bits.push w ~bits:db e.sub_lo;
      Bits.push w ~bits:db e.sub_hi;
      Bits.push w ~bits:pb e.port)
    l.light;
  (Bits.contents w, Bits.length w)

let decode_label t data =
  let r = Bits.reader data in
  let db = dfs_bits t and pb = port_bits t in
  let dfs = Bits.pull r ~bits:db in
  let count = Bits.pull_gamma r in
  let light =
    Array.init count (fun _ ->
        let at_lo = Bits.pull r ~bits:db in
        let sub_lo = Bits.pull r ~bits:db in
        let sub_hi = Bits.pull r ~bits:db in
        let port = Bits.pull r ~bits:pb in
        { at_lo; sub_lo; sub_hi; port })
  in
  { dfs; light }

let label_bits t v =
  let _, bits = encode_label t (label t v) in
  bits

let interval_table_words t v = 2 + (3 * Array.length t.nodes.(idx t v).children)

let depth t v = t.nodes.(idx t v).depth

let tree_dist t u v =
  (* Walk both vertices up to their LCA using depths. *)
  let rec lift i target_depth acc =
    if t.nodes.(i).depth = target_depth then (i, acc)
    else lift t.nodes.(i).parent_idx target_depth (acc +. t.nodes.(i).edge_weight)
  in
  let rec meet i j acc =
    if i = j then acc
    else
      meet t.nodes.(i).parent_idx t.nodes.(j).parent_idx
        (acc +. t.nodes.(i).edge_weight +. t.nodes.(j).edge_weight)
  in
  let i = idx t u and j = idx t v in
  let d = min t.nodes.(i).depth t.nodes.(j).depth in
  let i, acc_i = lift i d 0.0 in
  let j, acc_j = lift j d 0.0 in
  acc_i +. acc_j +. meet i j 0.0

let step t ~at (l : label) =
  let u = t.nodes.(idx t at) in
  if l.dfs = u.lo then `Deliver
  else if l.dfs < u.lo || l.dfs > u.hi then `Forward u.parent_port
  else if u.heavy_lo >= 0 && l.dfs >= u.heavy_lo && l.dfs <= u.heavy_hi then
    `Forward u.heavy_port
  else begin
    (* The next edge is a light edge out of [at]; its record is in the label. *)
    let rec find i =
      if i >= Array.length l.light then
        invalid_arg "Tree_routing.step: corrupt label"
      else if l.light.(i).at_lo = u.lo then l.light.(i).port
      else find (i + 1)
    in
    `Forward (find 0)
  end

let step_interval t ~at (l : label) =
  let u = t.nodes.(idx t at) in
  if l.dfs = u.lo then `Deliver
  else if l.dfs < u.lo || l.dfs > u.hi then `Forward u.parent_port
  else begin
    let rec find i =
      let cl, ch, p = u.children.(i) in
      if l.dfs >= cl && l.dfs <= ch then p else find (i + 1)
    in
    `Forward (find 0)
  end
