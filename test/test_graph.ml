open Util
open Cr_graph

let triangle () = Graph.of_edges [ (0, 1, 1.0); (1, 2, 2.0); (0, 2, 4.0) ]

let test_counts () =
  let g = triangle () in
  checki "n" 3 (Graph.n g);
  checki "m" 3 (Graph.m g);
  checki "deg 0" 2 (Graph.degree g 0)

let test_degree_stats () =
  let g = Generators.star 9 in
  checki "max degree at hub" 8 (Graph.max_degree g);
  checkf "avg degree" (2.0 *. 8.0 /. 9.0) (Graph.avg_degree g);
  checki "edgeless" 0 (Graph.max_degree (Graph.of_edges ~n:3 []))

let test_ports_symmetric () =
  let g = triangle () in
  for u = 0 to 2 do
    for p = 0 to Graph.degree g u - 1 do
      let v = Graph.endpoint g u p in
      match Graph.port_to g v u with
      | None -> Alcotest.fail "missing reverse port"
      | Some q ->
        checki "reverse endpoint" u (Graph.endpoint g v q);
        checkf "same weight" (Graph.port_weight g u p) (Graph.port_weight g v q)
    done
  done

let test_edge_weight () =
  let g = triangle () in
  checkb "edge 0-1" true (Graph.edge_weight g 0 1 = Some 1.0);
  checkb "edge 1-0 same" true (Graph.edge_weight g 1 0 = Some 1.0);
  checkb "no self edge" true (Graph.edge_weight g 0 0 = None)

let test_dedup_keeps_lightest () =
  let g = Graph.of_edges [ (0, 1, 3.0); (1, 0, 1.5); (0, 1, 2.0) ] in
  checki "single edge" 1 (Graph.m g);
  checkb "lightest kept" true (Graph.edge_weight g 0 1 = Some 1.5)

let test_rejects_self_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.of_edges: self-loop")
    (fun () -> ignore (Graph.of_edges [ (1, 1, 1.0) ]))

let test_rejects_bad_weight () =
  Alcotest.check_raises "zero weight"
    (Invalid_argument "Graph.of_edges: non-positive weight") (fun () ->
      ignore (Graph.of_edges [ (0, 1, 0.0) ]))

let test_isolated_vertices () =
  let g = Graph.of_edges ~n:5 [ (0, 1, 1.0) ] in
  checki "n respected" 5 (Graph.n g);
  checki "deg of isolated" 0 (Graph.degree g 4)

let test_unit_weighted_flag () =
  checkb "unit" true (Graph.is_unit_weighted (Generators.path 4));
  checkb "not unit" false (Graph.is_unit_weighted (triangle ()))

let test_min_max_weight () =
  let g = triangle () in
  checkf "min" 1.0 (Graph.min_edge_weight g);
  checkf "max" 4.0 (Graph.max_edge_weight g)

let test_reweight () =
  let g = triangle () in
  let g' = Graph.reweight g (fun _ _ w -> w *. 2.0) in
  checkb "doubled" true (Graph.edge_weight g' 1 2 = Some 4.0);
  (* Mirrored on both port directions. *)
  (match Graph.port_to g' 2 1 with
  | Some p -> checkf "mirrored" 4.0 (Graph.port_weight g' 2 p)
  | None -> Alcotest.fail "port vanished");
  checkb "original untouched" true (Graph.edge_weight g 1 2 = Some 2.0)

let test_subgraph () =
  let g = triangle () in
  let h = Graph.subgraph_of_edges g [ (0, 1); (1, 2) ] in
  checki "two edges" 2 (Graph.m h);
  checkb "0-2 gone" false (Graph.has_edge h 0 2);
  checkb "weight copied" true (Graph.edge_weight h 1 2 = Some 2.0)

let test_edges_sorted () =
  let g = triangle () in
  checkb "canonical edge list" true
    (Graph.edges g = [ (0, 1, 1.0); (0, 2, 4.0); (1, 2, 2.0) ])

let prop_fold_edges_counts =
  qcheck ~count:60 "fold_edges visits each edge once" arb_connected_graph
    (fun g ->
      let count = Graph.fold_edges (fun _ _ _ acc -> acc + 1) g 0 in
      count = Graph.m g)

let prop_degree_sum =
  qcheck ~count:60 "sum of degrees = 2m" arb_connected_graph (fun g ->
      let s = ref 0 in
      for u = 0 to Graph.n g - 1 do
        s := !s + Graph.degree g u
      done;
      !s = 2 * Graph.m g)

(* --- construction paths ------------------------------------------------ *)

let same_csr a b = Graph.csr a = Graph.csr b

(* A weighted edge list in adversarial order: random orientations, random
   permutation — every construction path must still produce the canonical
   CSR byte for byte. *)
let arb_shuffled_edges =
  QCheck2.Gen.(
    let* g = arb_weighted_connected_graph in
    let* seed = int_range 0 9_999 in
    let st = Random.State.make [| seed; 0x5f |] in
    let edges = Array.of_list (Graph.edges g) in
    let edges =
      Array.map
        (fun (u, v, w) -> if Random.State.bool st then (v, u, w) else (u, v, w))
        edges
    in
    for i = Array.length edges - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = edges.(i) in
      edges.(i) <- edges.(j);
      edges.(j) <- t
    done;
    return (Graph.n g, Array.to_list edges))

let prop_builder_identical =
  qcheck ~count:120 "Builder = of_edges, any order"
    arb_shuffled_edges
    (fun (n, edges) ->
      let reference = Graph.of_edges ~n (List.sort compare edges) in
      let b = Graph.Builder.create ~n () in
      List.iter (fun (u, v, w) -> Graph.Builder.add_edge b u v w) edges;
      same_csr reference (Graph.Builder.finish b)
      && same_csr reference (Graph.of_edges ~n edges))

let test_builder_finish_n_too_small () =
  let b = Graph.Builder.create () in
  Graph.Builder.add_edge b 0 5 1.0;
  checkb "finish ~n below max id rejected" true
    (try
       ignore (Graph.Builder.finish ~n:3 b);
       false
     with Invalid_argument _ -> true)

(* The int32 CSR indexes at most [Graph.csr_limit] vertices: a larger
   count is refused before anything is allocated. *)
let test_builder_finish_past_limit () =
  checkb "finish ~n past the int32 limit rejected" true
    (try
       let b = Graph.Builder.create () in
       ignore (Graph.Builder.finish ~n:(Graph.csr_limit + 1) b);
       false
     with Invalid_argument _ -> true)

(* --- float32 weights --------------------------------------------------- *)

(* 1 + 2^-30 rounds to 1 in float32. *)
let w_fine = 1.0 +. ldexp 1.0 (-30)

let float32_bytes g = (4 * (Graph.n g + 1)) + (16 * Graph.m g)

let test_pack_float32 () =
  let g =
    Graph.pack (Graph.of_edges [ (0, 1, w_fine); (1, 2, 2.0); (0, 3, 3.0) ])
  in
  checkb "pack without ~float32 is the identity" true (Graph.pack g == g);
  let g32 = Graph.pack ~float32:true g in
  checkb "float32 weights shrink the storage" true
    (Graph.storage_bytes g32 < Graph.storage_bytes g);
  checki "float32 storage bytes" (float32_bytes g) (Graph.storage_bytes g32);
  checkb "the rounded weight is stored" true
    (Graph.edge_weight g32 0 1 = Some 1.0);
  checkb "distances use the rounded weights" true
    ((Dijkstra.spt g 0).Dijkstra.dist.(2) = w_fine +. 2.0
    && (Dijkstra.spt g32 0).Dijkstra.dist.(2) = 3.0);
  checkb "pack ~float32 on float32 weights is the identity" true
    (Graph.pack ~float32:true g32 == g32);
  (* Every derived graph keeps float32 weights, rounding the new ones. *)
  let keeps name g' =
    checki (name ^ " keeps float32 storage") (float32_bytes g')
      (Graph.storage_bytes g')
  in
  let d = Graph.apply_delta g32 [ Graph.Insert (2, 3, w_fine) ] in
  keeps "apply_delta" d;
  checkb "apply_delta rounds the inserted weight" true
    (Graph.edge_weight d 2 3 = Some 1.0);
  let r = Graph.reweight g32 (fun _ _ w -> w +. ldexp 1.0 (-30)) in
  keeps "reweight" r;
  checkb "reweight rounds the new weights" true
    (Graph.edges r = Graph.edges g32);
  let u = Graph.unit_weighted g32 in
  keeps "unit_weighted" u;
  checkb "unit_weighted is unit" true (Graph.is_unit_weighted u);
  keeps "subgraph_of_edges" (Graph.subgraph_of_edges g32 [ (0, 1); (1, 2) ])

let test_float32_unit_and_unrepresentable () =
  let gp = Graph.pack ~float32:true (Generators.path 5) in
  checkb "unit weights survive float32" true
    (Graph.edges gp = Graph.edges (Generators.path 5));
  checkb "still unit-weighted" true (Graph.is_unit_weighted gp);
  (* A positive float64 that rounds to 0.0 in float32 must be rejected,
     not silently corrupted into a zero-weight edge. *)
  let rejects name f =
    checkb name true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  rejects "unrepresentable weight rejected by pack" (fun () ->
      Graph.pack ~float32:true (Graph.of_edges [ (0, 1, 1e-50) ]));
  rejects "unrepresentable insert rejected on float32 weights" (fun () ->
      Graph.apply_delta gp [ Graph.Insert (0, 2, 1e-50) ])

let suite =
  [
    case "vertex and edge counts" test_counts;
    case "degree statistics" test_degree_stats;
    case "ports are symmetric" test_ports_symmetric;
    case "edge_weight lookups" test_edge_weight;
    case "duplicate edges keep lightest" test_dedup_keeps_lightest;
    case "self-loops rejected" test_rejects_self_loop;
    case "non-positive weights rejected" test_rejects_bad_weight;
    case "isolated vertices allowed" test_isolated_vertices;
    case "unit-weight detection" test_unit_weighted_flag;
    case "min/max edge weight" test_min_max_weight;
    case "reweight mirrors both ports" test_reweight;
    case "subgraph extraction" test_subgraph;
    case "edges are canonical" test_edges_sorted;
    prop_fold_edges_counts;
    prop_degree_sum;
    prop_builder_identical;
    case "Builder.finish rejects too-small n" test_builder_finish_n_too_small;
    case "Builder.finish rejects n past the int32 limit"
      test_builder_finish_past_limit;
    case "float32 pack on float64 weights" test_pack_float32;
    case "float32 packing" test_float32_unit_and_unrepresentable;
  ]
