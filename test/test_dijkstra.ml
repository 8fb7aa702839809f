open Util
open Cr_graph

(* Floyd–Warshall as an independent reference. *)
let floyd g =
  let n = Graph.n g in
  let d = Array.make_matrix n n infinity in
  for v = 0 to n - 1 do
    d.(v).(v) <- 0.0
  done;
  Graph.fold_edges
    (fun u v w () ->
      if w < d.(u).(v) then begin
        d.(u).(v) <- w;
        d.(v).(u) <- w
      end)
    g ();
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let t = d.(i).(k) +. d.(k).(j) in
        if t < d.(i).(j) then d.(i).(j) <- t
      done
    done
  done;
  d

let test_spt_simple () =
  let g =
    Graph.of_edges [ (0, 1, 1.0); (1, 2, 1.0); (0, 2, 5.0); (2, 3, 2.0) ]
  in
  let t = Dijkstra.spt g 0 in
  checkf "d(0,2) via 1" 2.0 t.dist.(2);
  checkf "d(0,3)" 4.0 t.dist.(3);
  checki "parent of 2" 1 t.parent.(2);
  checkb "path" true (Dijkstra.path_to t 3 = [ 0; 1; 2; 3 ])

let test_path_from () =
  let g = Generators.path 5 in
  let t = Dijkstra.spt g 4 in
  checkb "path toward root" true (Dijkstra.path_from t 0 = [ 0; 1; 2; 3; 4 ])

let test_first_port () =
  let g = Generators.cycle 6 in
  let t = Dijkstra.spt g 0 in
  (* First port toward 1 and toward 5 must differ (two directions). *)
  checkb "distinct directions" true (t.first_port.(1) <> t.first_port.(5));
  checki "first port of source" (-1) t.first_port.(0)

let test_unreachable () =
  let g = Graph.of_edges ~n:4 [ (0, 1, 1.0); (2, 3, 1.0) ] in
  let t = Dijkstra.spt g 0 in
  checkb "unreachable infinite" true (t.dist.(2) = infinity);
  checki "settled count" 2 (Array.length t.order)

let prop_matches_floyd =
  qcheck ~count:60 "dijkstra = floyd-warshall" arb_weighted_connected_graph
    (fun g ->
      let d = floyd g in
      let ok = ref true in
      for s = 0 to Graph.n g - 1 do
        let t = Dijkstra.spt g s in
        for v = 0 to Graph.n g - 1 do
          if abs_float (t.dist.(v) -. d.(s).(v)) > 1e-6 then ok := false
        done
      done;
      !ok)

let prop_matches_bfs =
  qcheck ~count:60 "dijkstra = bfs on unit graphs" arb_connected_graph
    (fun g ->
      let ok = ref true in
      for s = 0 to min 5 (Graph.n g - 1) do
        let t = Dijkstra.spt g s in
        let b = Bfs.run g s in
        for v = 0 to Graph.n g - 1 do
          let bd = if b.dist.(v) = max_int then infinity else float_of_int b.dist.(v) in
          if t.dist.(v) <> bd then ok := false
        done
      done;
      !ok)

let prop_tree_edges_tight =
  qcheck ~count:60 "SPT parent edges are tight" arb_weighted_connected_graph
    (fun g ->
      let t = Dijkstra.spt g 0 in
      Array.for_all
        (fun v ->
          v = 0
          ||
          let p = t.parent.(v) in
          match Graph.edge_weight g p v with
          | Some w -> abs_float (t.dist.(p) +. w -. t.dist.(v)) < 1e-9
          | None -> false)
        (Array.init (Graph.n g) Fun.id))

let prop_settle_order =
  qcheck ~count:60 "settling follows (dist, id) order"
    arb_weighted_connected_graph (fun g ->
      let t = Dijkstra.spt g 0 in
      let ok = ref true in
      for i = 0 to Array.length t.order - 2 do
        let a = t.order.(i) and b = t.order.(i + 1) in
        if (t.dist.(a), a) >= (t.dist.(b), b) then ok := false
      done;
      !ok)

let prop_truncated_is_prefix =
  qcheck ~count:60 "truncated = prefix of full settle order"
    arb_weighted_connected_graph (fun g ->
      let n = Graph.n g in
      let t = Dijkstra.spt g 0 in
      let ok = ref true in
      List.iter
        (fun l ->
          let tr = Dijkstra.truncated g 0 l in
          let expect = Array.sub t.order 0 (min l n) in
          if tr.vertices <> expect then ok := false)
        [ 1; 2; n / 2; n; n + 5 ];
      !ok)

let prop_truncated_next_dist =
  qcheck ~count:60 "truncated next_dist matches the (l+1)-th distance"
    arb_weighted_connected_graph (fun g ->
      let n = Graph.n g in
      let t = Dijkstra.spt g 0 in
      let l = max 1 (n / 2) in
      let tr = Dijkstra.truncated g 0 l in
      if l >= n then tr.next_dist = None
      else tr.next_dist = Some t.dist.(t.order.(l)))

let prop_multi_source =
  qcheck ~count:60 "multi-source = min over single sources"
    arb_weighted_connected_graph (fun g ->
      let n = Graph.n g in
      let centers = [ 0; n / 2; n - 1 ] |> List.sort_uniq compare in
      let m = Dijkstra.multi_source g centers in
      let trees = List.map (fun c -> (c, Dijkstra.spt g c)) centers in
      let ok = ref true in
      for v = 0 to n - 1 do
        let best =
          List.fold_left
            (fun acc (c, t) ->
              match acc with
              | None -> Some (t.Dijkstra.dist.(v), c)
              | Some (d, c0) ->
                if t.Dijkstra.dist.(v) < d then Some (t.Dijkstra.dist.(v), c)
                else if t.Dijkstra.dist.(v) = d && c < c0 then Some (d, c)
                else acc)
            None trees
        in
        match best with
        | Some (d, c) ->
          if m.dist_to_set.(v) <> d || m.nearest.(v) <> c then ok := false
        | None -> ok := false
      done;
      !ok)

let prop_restricted_is_cluster =
  qcheck ~count:40 "restricted dijkstra settles exactly the cluster"
    arb_weighted_connected_graph (fun g ->
      let n = Graph.n g in
      let centers = [ 0; n - 1 ] |> List.sort_uniq compare in
      let m = Dijkstra.multi_source g centers in
      let apsp = Apsp.compute g in
      let ok = ref true in
      for w = 0 to n - 1 do
        let c = Dijkstra.restricted g w ~limit:m.dist_to_set in
        let members = Array.to_list c.order |> List.sort_uniq compare in
        let expected =
          List.init n Fun.id
          |> List.filter (fun v -> Apsp.dist apsp w v < m.dist_to_set.(v))
        in
        if members <> expected then ok := false
      done;
      !ok)

(* Allocation contract of the truncated search (native code only, where
   float unboxing applies): a pop and a relaxation allocate nothing, so on
   a reused workspace settling 50 more members costs only the 4 result
   arrays' word per member each. *)
let test_truncated_allocation () =
  let g =
    Generators.with_random_weights ~seed:1 ~lo:1.0 ~hi:8.0 (Generators.glp ~seed:1 400)
  in
  let ws = Dijkstra.workspace (Graph.n g) in
  let words l =
    ignore (Dijkstra.truncated_ws ws g 0 l);
    let w0 = Gc.minor_words () in
    let t = Dijkstra.truncated_ws ws g 0 l in
    let w = Gc.minor_words () -. w0 in
    checki "settled" l (Array.length t.Dijkstra.vertices);
    Float.to_int w
  in
  if Sys.backend_type = Sys.Native then begin
    let w50 = words 50 and w100 = words 100 in
    checkb
      (Printf.sprintf "l=50: %d words, l=100: %d words" w50 w100)
      true
      (w100 - w50 <= (4 * 50) + 8)
  end

(* The same contract for the borrowed single-source searches: a pop, a
   limit test and a relaxation allocate nothing, so settling 50 more
   vertices costs only their 50 words of [order]. The runs stop after the
   first k vertices of the full tree: [with_spt_until] at the k-th, and
   [with_restricted] under a limit that admits exactly those k, every
   other vertex being rejected at its pop. *)
let test_borrowed_search_allocation () =
  let g =
    Generators.with_random_weights ~seed:1 ~lo:1.0 ~hi:8.0 (Generators.glp ~seed:1 400)
  in
  let n = Graph.n g in
  let full = (Dijkstra.spt g 0).Dijkstra.order in
  let ws = Dijkstra.workspace n in
  let words run k =
    let settled () = run k (fun t -> Array.length t.Dijkstra.order) in
    ignore (settled ());
    let w0 = Gc.minor_words () in
    let c = settled () in
    let w = Gc.minor_words () -. w0 in
    checki "settled" k c;
    Float.to_int w
  in
  let until k f = Dijkstra.with_spt_until ws g 0 ~until:full.(k - 1) f in
  let restricted k f =
    let limit = Array.make n 0.0 in
    for i = 0 to k - 1 do
      limit.(full.(i)) <- infinity
    done;
    Dijkstra.with_restricted ws g 0 ~limit f
  in
  if Sys.backend_type = Sys.Native then
    List.iter
      (fun (name, run) ->
        let w50 = words run 50 and w100 = words run 100 in
        checkb
          (Printf.sprintf "%s: k=50: %d words, k=100: %d words" name w50 w100)
          true
          (w100 - w50 <= 50 + 8))
      [ ("with_spt_until", until); ("with_restricted", restricted) ]

let suite =
  [
    case "simple weighted spt" test_spt_simple;
    case "path_from walks to the root" test_path_from;
    case "first ports distinguish directions" test_first_port;
    case "unreachable vertices" test_unreachable;
    prop_matches_floyd;
    prop_matches_bfs;
    prop_tree_edges_tight;
    prop_settle_order;
    prop_truncated_is_prefix;
    prop_truncated_next_dist;
    prop_multi_source;
    prop_restricted_is_cluster;
    case "truncated search allocates only its result" test_truncated_allocation;
    case "borrowed searches allocate only their order"
      test_borrowed_search_allocation;
  ]
