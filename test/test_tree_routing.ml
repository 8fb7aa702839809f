open Util
open Cr_graph
open Cr_routing

let route_on_tree t g ~interval ~src ~dst =
  let lbl = Tree_routing.label t dst in
  Port_model.run g ~src ~header:lbl
    ~step:(fun ~at l ->
      let d =
        if interval then Tree_routing.step_interval t ~at l
        else Tree_routing.step t ~at l
      in
      match d with
      | `Deliver -> Port_model.Deliver
      | `Forward p -> Port_model.Forward (p, l))
    ~header_words:(fun l -> Tree_routing.label_words l)
    ()

let check_all_pairs g t =
  let ms = Tree_routing.members t in
  let ok = ref true in
  Array.iter
    (fun u ->
      Array.iter
        (fun v ->
          List.iter
            (fun interval ->
              let o = route_on_tree t g ~interval ~src:u ~dst:v in
              if not ((Port_model.delivered o) && o.Port_model.final = v) then
                ok := false
              else if
                abs_float (o.Port_model.length -. Tree_routing.tree_dist t u v)
                > 1e-9
              then ok := false)
            [ false; true ])
        ms)
    ms;
  !ok

let test_path_tree () =
  let g = Generators.path 8 in
  let t = Tree_routing.of_tree g (Dijkstra.spt g 0) in
  checkb "all pairs route on tree path" true (check_all_pairs g t)

let test_star_tree () =
  let g = Generators.star 9 in
  let t = Tree_routing.of_tree g (Dijkstra.spt g 3) in
  checkb "all pairs" true (check_all_pairs g t)

let test_subtree_of_graph () =
  (* Tree routing over a cluster (strict subset of the graph). *)
  let g = Generators.grid 4 4 in
  let members = [| 5; 1; 4; 6; 9 |] in
  let parent = function 1 -> 5 | 4 -> 5 | 6 -> 5 | 9 -> 5 | _ -> -1 in
  let t = Tree_routing.build g ~root:5 ~members ~parent in
  checkb "all pairs within cluster" true (check_all_pairs g t);
  checkb "outsider not a member" false (Tree_routing.mem t 15)

let test_label_sizes_logarithmic () =
  (* A balanced binary tree: light depth <= log2 n, so labels stay small. *)
  let g = Generators.balanced_tree ~branching:2 ~depth:7 in
  let t = Tree_routing.of_tree g (Dijkstra.spt g 0) in
  let worst =
    Array.fold_left
      (fun acc v -> max acc (Tree_routing.label_words (Tree_routing.label t v)))
      0 (Tree_routing.members t)
  in
  (* 1 + 4 * light-depth; light depth <= 7 here. *)
  checkb "label words bounded" true (worst <= 1 + (4 * 7))

let test_table_constant () =
  let g = Generators.star 50 in
  let t = Tree_routing.of_tree g (Dijkstra.spt g 0) in
  checki "heavy-light table is O(1)" 7 (Tree_routing.table_words t 0);
  checkb "interval table at hub is linear" true
    (Tree_routing.interval_table_words t 0 >= 49 * 3)

let test_depth () =
  let g = Generators.path 6 in
  let t = Tree_routing.of_tree g (Dijkstra.spt g 0) in
  checki "depth of far end" 5 (Tree_routing.depth t 5);
  checki "depth of root" 0 (Tree_routing.depth t 0)

let test_tree_dist_weighted () =
  let g = Graph.of_edges [ (0, 1, 2.5); (1, 2, 1.5); (1, 3, 4.0) ] in
  let t = Tree_routing.of_tree g (Dijkstra.spt g 0) in
  checkf "lca distance" 5.5 (Tree_routing.tree_dist t 2 3);
  checkf "root to leaf" 6.5 (Tree_routing.tree_dist t 0 3)

let test_rejects_bad_trees () =
  let g = Generators.path 4 in
  checkb "root missing" true
    (try
       ignore (Tree_routing.build g ~root:9 ~members:[| 0; 1 |] ~parent:(fun _ -> 0));
       false
     with Invalid_argument _ -> true);
  checkb "non-edge parent" true
    (try
       ignore (Tree_routing.build g ~root:0 ~members:[| 0; 2 |] ~parent:(fun _ -> 0));
       false
     with Invalid_argument _ -> true)

let prop_random_spt_all_pairs =
  qcheck ~count:30 "tree routing exact on random SPTs"
    arb_weighted_connected_graph (fun g ->
      let t = Tree_routing.of_tree g (Dijkstra.spt g 0) in
      check_all_pairs g t)

let prop_heavy_light_equals_interval =
  qcheck ~count:30 "heavy-light and interval agree hop by hop"
    arb_connected_graph (fun g ->
      let t = Tree_routing.of_tree g (Dijkstra.spt g 0) in
      let ms = Tree_routing.members t in
      Array.for_all
        (fun u ->
          Array.for_all
            (fun v ->
              let l = Tree_routing.label t v in
              Tree_routing.step t ~at:u l = Tree_routing.step_interval t ~at:u l)
            ms)
        ms)

let prop_labels_light_depth =
  qcheck ~count:30 "label entries = light edges <= log2 n"
    arb_connected_graph (fun g ->
      let t = Tree_routing.of_tree g (Dijkstra.spt g 0) in
      let n = Array.length (Tree_routing.members t) in
      let bound = 1 + (4 * (1 + int_of_float (log (float_of_int n) /. log 2.0))) in
      Array.for_all
        (fun v -> Tree_routing.label_words (Tree_routing.label t v) <= bound)
        (Tree_routing.members t))

(* A naive heavy-light reference from the parent function alone:
   recursive subtree sizes, children sorted by (size desc, id asc),
   preorder numbers, and the light edges of each root path, root first.
   Ports and weights come from the host graph. *)
let reference_tree g ~root ~members ~parent =
  let kids = Hashtbl.create 16 in
  Array.iter (fun v -> if v <> root then Hashtbl.add kids (parent v) v) members;
  let sizes = Hashtbl.create 16 in
  let rec size v =
    match Hashtbl.find_opt sizes v with
    | Some s -> s
    | None ->
      let s = List.fold_left (fun acc c -> acc + size c) 1 (Hashtbl.find_all kids v) in
      Hashtbl.replace sizes v s;
      s
  in
  let children v =
    List.sort (fun a b -> compare (-size a, a) (-size b, b)) (Hashtbl.find_all kids v)
  in
  let pre = Hashtbl.create 16 and next = ref 0 in
  let rec number v =
    Hashtbl.replace pre v !next;
    incr next;
    List.iter number (children v)
  in
  number root;
  let pre v = Hashtbl.find pre v in
  let hi v = pre v + size v - 1 in
  let port u v = Option.get (Graph.port_to g u v) in
  let rec up_path v = if v = root then [ v ] else v :: up_path (parent v) in
  let lights v =
    let rec go = function
      | p :: (c :: _ as rest) ->
        if List.hd (children p) = c then go rest
        else (pre p, pre c, hi c, port p c) :: go rest
      | _ -> []
    in
    go (List.rev (up_path v))
  in
  let width =
    Array.fold_left
      (fun acc v ->
        if v = root then acc
        else max acc (max (port v (parent v)) (port (parent v) v)))
      0 members
  in
  let encode v =
    let w = Bits.writer () in
    let db = Bits.bits_for (Array.length members)
    and pb = Bits.bits_for (width + 1) in
    let ls = lights v in
    Bits.push w ~bits:db (pre v);
    Bits.push_gamma w (List.length ls);
    List.iter
      (fun (a, b, c, p) ->
        Bits.push w ~bits:db a;
        Bits.push w ~bits:db b;
        Bits.push w ~bits:db c;
        Bits.push w ~bits:pb p)
      ls;
    (Bits.contents w, Bits.length w)
  in
  let depth v = List.length (up_path v) - 1 in
  let weight v = Graph.port_weight g v (port v (parent v)) in
  let dist u v =
    let rec lift x target acc =
      if depth x = target then (x, acc) else lift (parent x) target (acc +. weight x)
    in
    let rec meet x y acc =
      if x = y then acc else meet (parent x) (parent y) (acc +. weight x +. weight y)
    in
    let target = min (depth u) (depth v) in
    let x, acc_u = lift u target 0.0 in
    let y, acc_v = lift v target 0.0 in
    acc_u +. acc_v +. meet x y 0.0
  in
  let interval_words v = 2 + (3 * List.length (Hashtbl.find_all kids v)) in
  (encode, lights, interval_words, depth, dist)

(* Every tree of [g] the schemes build: shortest-path trees from two
   roots and the Thorup-Zwick cluster C(w) of every w outside the
   centers {v : v mod 3 = 0}, as (root, members, parent). *)
let trees_of g =
  let n = Graph.n g in
  let of_dij (tr : Dijkstra.tree) =
    (tr.Dijkstra.source, tr.Dijkstra.order, fun v -> tr.Dijkstra.parent.(v))
  in
  let centers = List.filter (fun v -> v mod 3 = 0) (List.init n Fun.id) in
  let ms = Dijkstra.multi_source g centers in
  let clusters =
    List.filter_map
      (fun w ->
        if w mod 3 = 0 then None
        else
          Some
            (of_dij
               (Dijkstra.restricted g w ~limit:ms.Dijkstra.dist_to_set)))
      (List.init n Fun.id)
  in
  of_dij (Dijkstra.spt g 0) :: of_dij (Dijkstra.spt g (n - 1)) :: clusters

let agrees_with_reference g =
  List.for_all
    (fun (root, members, parent) ->
      let t = Tree_routing.build g ~root ~members ~parent in
      let encode, lights, interval_words, depth, dist =
        reference_tree g ~root ~members ~parent
      in
      Array.for_all
        (fun v ->
          let l = Tree_routing.label t v in
          let data, bits = Tree_routing.encode_label t l in
          (data, bits) = encode v
          && Tree_routing.label_words l = 1 + (4 * List.length (lights v))
          && Tree_routing.label_bits t v = bits
          && Tree_routing.decode_label t data = l
          && Tree_routing.interval_table_words t v = interval_words v
          && Tree_routing.depth t v = depth v
          && Array.for_all (fun u -> Tree_routing.tree_dist t u v = dist u v) members)
        members)
    (trees_of g)

let prop_naive_reference =
  qcheck ~count:40 "heavy-light layout equals a naive reference"
    QCheck2.Gen.(
      let* g = arb_connected_graph in
      let* weighted = bool in
      return
        (if weighted then Generators.with_random_weights ~seed:(Graph.m g) ~lo:0.25 ~hi:8.0 g
         else g))
    agrees_with_reference

(* The home label a tz-k3 vertex stores for a member of its cluster is the
   tree's own label block, so a snapshot writes each label once. *)
let test_home_labels_shared () =
  let g = Generators.connect ~seed:5 (Generators.gnp ~seed:5 120 0.04) in
  let t = Cr_baselines.Tz_routing.preprocess ~seed:17 g ~k:3 in
  let shared = ref 0 in
  for u = 0 to Graph.n g - 1 do
    match Cr_baselines.Tz_routing.tree t u with
    | None -> ()
    | Some tr ->
      Array.iter
        (fun v ->
          match Cr_baselines.Tz_routing.home_label t u v with
          | None -> ()
          | Some l ->
            incr shared;
            checkb "home label is the tree's label block" true
              (l == Tree_routing.label tr v))
        (Tree_routing.members tr)
  done;
  checkb "some home labels checked" true (!shared > 0)

(* A tree is a few flat arrays plus one label block per member: on a
   200-member path (every label empty of light edges) and a 200-member
   star (one light edge per leaf label) it stays under 20 words per
   member. *)
let test_words_per_member () =
  List.iter
    (fun (name, g) ->
      let t = Tree_routing.of_tree g (Dijkstra.spt g 0) in
      let k = Array.length (Tree_routing.members t) in
      let words = Obj.reachable_words (Obj.repr t) in
      checkb
        (Printf.sprintf "%s: %d words for %d members" name words k)
        true
        (k = 200 && words <= 20 * k))
    [ ("path", Generators.path 200); ("star", Generators.star 200) ]

let suite =
  [
    case "path tree" test_path_tree;
    case "star tree" test_star_tree;
    case "cluster subtree" test_subtree_of_graph;
    case "balanced-tree labels stay small" test_label_sizes_logarithmic;
    case "constant local tables" test_table_constant;
    case "depths" test_depth;
    case "weighted tree distance" test_tree_dist_weighted;
    case "malformed trees rejected" test_rejects_bad_trees;
    prop_random_spt_all_pairs;
    prop_heavy_light_equals_interval;
    prop_labels_light_depth;
    prop_naive_reference;
    case "tz home labels share the tree's label blocks" test_home_labels_shared;
    case "flat trees stay under 20 words per member" test_words_per_member;
  ]
