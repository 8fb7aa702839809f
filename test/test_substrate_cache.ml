(* The shared preprocessing substrate cache and the CSR graph core:
   cached builds must be bit-identical to uncached ones across the whole
   catalog (serial and with a 4-domain default pool), the memo counters
   must prove the sharing, and the CSR accessors must agree with a naive
   reference model of the adjacency. *)
open Util
open Cr_graph
open Cr_routing
open Cr_core

(* --- CSR accessors vs a reference model --- *)

(* The reference: re-derive per-vertex adjacency from the edge list the
   graph itself reports, sorted exactly as [of_edges] sorts (by (u, v)),
   which is the documented port order. *)
let reference_adjacency g =
  let n = Graph.n g in
  let adj = Array.make n [] in
  Graph.fold_edges
    (fun u v w () ->
      adj.(u) <- (v, w) :: adj.(u);
      adj.(v) <- (u, w) :: adj.(v))
    g ();
  Array.map
    (fun l ->
      Array.of_list (List.sort (fun (v1, _) (v2, _) -> Int.compare v1 v2) l))
    adj

let i32 a i = Int32.to_int (Bigarray.Array1.get a i)

let prop_csr_matches_reference =
  qcheck ~count:60 "CSR arrays agree with the adjacency reference"
    arb_weighted_connected_graph (fun g ->
      let n = Graph.n g and m = Graph.m g in
      let { Graph.off; dst; wgt } = Graph.csr g in
      let adj = reference_adjacency g in
      (* Shape: n+1 offsets, monotone, covering 2m half-edges. *)
      Bigarray.Array1.dim off = n + 1
      && i32 off 0 = 0
      && i32 off n = 2 * m
      && Array.for_all
           (fun u -> i32 off u <= i32 off (u + 1))
           (Array.init n Fun.id)
      (* Every accessor reads straight off the CSR slice. *)
      && Array.for_all
           (fun u ->
             let deg = i32 off (u + 1) - i32 off u in
             deg = Graph.degree g u
             && deg = Array.length adj.(u)
             && Array.for_all
                  (fun p ->
                    let v, w = adj.(u).(p) in
                    i32 dst (i32 off u + p) = v
                    && Graph.weight wgt (i32 off u + p) = w
                    && Graph.endpoint g u p = v
                    && Graph.port_weight g u p = w)
                  (Array.init deg Fun.id))
           (Array.init n Fun.id))

let prop_neighbors_match_csr =
  qcheck ~count:60 "neighbors/iter_neighbors walk the CSR slice in port order"
    arb_weighted_connected_graph (fun g ->
      let { Graph.off; dst; wgt } = Graph.csr g in
      Array.for_all
        (fun u ->
          let base = i32 off u in
          let slice =
            List.init (i32 off (u + 1) - base) (fun p ->
                (p, i32 dst (base + p), Graph.weight wgt (base + p)))
          in
          Graph.neighbors g u = List.map (fun (_, v, w) -> (v, w)) slice
          &&
          let seen = ref [] in
          Graph.iter_neighbors g u (fun ~port ~v ~w ->
              seen := (port, v, w) :: !seen);
          List.rev !seen = slice)
        (Array.init (Graph.n g) Fun.id))

let prop_port_to_matches_naive_scan =
  qcheck ~count:60 "port_to equals the naive O(degree) scan"
    arb_weighted_connected_graph (fun g ->
      let n = Graph.n g in
      let naive u v =
        let r = ref None in
        Graph.iter_neighbors g u (fun ~port ~v:x ~w:_ ->
            if x = v && !r = None then r := Some port);
        !r
      in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if Graph.port_to g u v <> naive u v then ok := false
        done
      done;
      !ok)

(* --- Substrate: cached results physically reused, counted correctly --- *)

let test_substrate_memoizes () =
  let g = Generators.connect ~seed:3 (Generators.gnp ~seed:3 30 0.15) in
  let sub = Substrate.create g in
  let t1 = Substrate.spt sub 4 in
  let t2 = Substrate.spt sub 4 in
  checkb "same SPT object" true (t1 == t2);
  let v1 = Substrate.vicinities sub 6 in
  let v2 = Substrate.vicinities sub 6 in
  checkb "same vicinity family" true (v1 == v2);
  let c1 = Substrate.centers sub ~seed:9 ~target:5 in
  let c2 = Substrate.centers sub ~seed:9 ~target:5 in
  checkb "same center sample" true (c1 == c2);
  let st = Substrate.stats sub in
  checki "spt hits" 1 st.Substrate.spt_hits;
  checki "spt misses" 1 st.Substrate.spt_misses;
  checki "vicinity hits" 1 st.Substrate.vicinity_hits;
  checki "vicinity misses" 1 st.Substrate.vicinity_misses;
  checki "centers hits" 1 st.Substrate.centers_hits;
  checki "centers misses" 1 st.Substrate.centers_misses;
  checki "total hits" 3 (Substrate.hits st);
  checki "total misses" 3 (Substrate.misses st);
  (* Distinct keys miss. *)
  ignore (Substrate.spt sub 5);
  ignore (Substrate.centers sub ~seed:9 ~target:6);
  let st = Substrate.stats sub in
  checki "new root misses" 2 st.Substrate.spt_misses;
  checki "new target misses" 2 st.Substrate.centers_misses

let test_substrate_rejects_other_graph () =
  let g1 = Generators.path 8 and g2 = Generators.path 8 in
  let sub = Substrate.create g1 in
  checkb "same graph accepted" true (Substrate.for_graph (Some sub) g1 == sub);
  checkb "other graph rejected" true
    (try
       ignore (Substrate.for_graph (Some sub) g2);
       false
     with Invalid_argument _ -> true)

let test_substrate_results_match_direct () =
  let g =
    Generators.with_random_weights ~seed:5 ~lo:0.5 ~hi:4.0
      (Generators.connect ~seed:5 (Generators.gnp ~seed:5 30 0.15))
  in
  let sub = Substrate.create g in
  checkb "spt = Dijkstra.spt" true
    (Substrate.spt sub 7 = Dijkstra.spt g 7);
  let vs = Substrate.vicinities sub 5 and vd = Vicinity.compute_all g 5 in
  checkb "vicinities = Vicinity.compute_all" true
    (Array.for_all2
       (fun a b ->
         Vicinity.source a = Vicinity.source b
         && Vicinity.members a = Vicinity.members b)
       vs vd);
  let cs = Substrate.centers sub ~seed:11 ~target:6
  and cd = Centers.sample ~seed:11 g ~target:6 in
  checkb "centers = Centers.sample" true
    (cs.Centers.centers = cd.Centers.centers && cs.Centers.p_a = cd.Centers.p_a);
  checkb "bunches = Centers.bunches" true
    (Substrate.bunches sub ~seed:11 ~target:6 = Centers.bunches g cd)

(* --- Cluster records: the reference search, kept at cluster size --- *)

let cluster_graph () =
  Generators.with_random_weights ~seed:5 ~lo:0.5 ~hi:4.0
    (Generators.glp ~seed:5 150)

(* Every w's record against [Centers.cluster] (a restricted search owning
   its n-sized arrays): members are its [order], each distance its
   [dist] at that member bit for bit, and the tree routes as
   [Tree_routing.of_tree] of it does — same members, labels, and step at
   every member toward every member. *)
let test_cluster_matches_reference () =
  let g = cluster_graph () in
  let n = Graph.n g in
  let sub = Substrate.create g in
  List.iter
    (fun target ->
      let cd = Centers.sample ~seed:11 g ~target in
      let mass = ref 0 in
      for w = 0 to n - 1 do
        let c = Substrate.cluster sub ~seed:11 ~target w in
        let r = Centers.cluster g cd w in
        mass := !mass + Array.length c.members;
        let msg = Printf.sprintf "target %d, w=%d" target w in
        checkb (msg ^ ": members") true (c.members = r.Dijkstra.order);
        checkb (msg ^ ": dists") true
          (Array.length c.dists = Array.length c.members
          && Array.for_all2
               (fun d v ->
                 Int64.equal (Int64.bits_of_float d)
                   (Int64.bits_of_float r.Dijkstra.dist.(v)))
               c.dists c.members);
        match c.tree with
        | None -> checki (msg ^ ": empty") 0 (Array.length c.members)
        | Some tr ->
          let rt = Tree_routing.of_tree g r in
          checkb (msg ^ ": tree members") true
            (Tree_routing.members tr = Tree_routing.members rt);
          checkb (msg ^ ": labels and steps") true
            (Array.for_all
               (fun v ->
                 let l = Tree_routing.label tr v in
                 l = Tree_routing.label rt v
                 && Array.for_all
                      (fun at ->
                        Tree_routing.step tr ~at l = Tree_routing.step rt ~at l)
                      c.members)
               c.members)
      done;
      checkb (Printf.sprintf "target %d: %d members in all" target !mass) true
        (!mass > n))
    [ 8; 30 ]

(* A cluster and its tree are one memo entry, and bunches invert the
   memoized members: after [cluster] on every key, neither misses. *)
let test_cluster_lookups_hit () =
  let g = cluster_graph () in
  let n = Graph.n g in
  let sub = Substrate.create g in
  let c3 = Substrate.cluster sub ~seed:11 ~target:8 3 in
  let st = Substrate.stats sub in
  checki "first lookup misses" 1 st.Substrate.cluster_misses;
  checkb "tree lookup hits the same record" true
    ((Substrate.cluster sub ~seed:11 ~target:8 3).tree == c3.tree);
  let st' = Substrate.stats sub in
  checki "tree lookup: no miss" 1 st'.Substrate.cluster_misses;
  checki "tree lookup: a hit" (st.Substrate.cluster_hits + 1)
    st'.Substrate.cluster_hits;
  for w = 0 to n - 1 do
    ignore (Substrate.cluster sub ~seed:11 ~target:8 w)
  done;
  let st = Substrate.stats sub in
  checki "one miss per key" n st.Substrate.cluster_misses;
  ignore (Substrate.bunches sub ~seed:11 ~target:8);
  let st' = Substrate.stats sub in
  checki "bunches: no miss" n st'.Substrate.cluster_misses;
  checki "bunches: a hit per key" (st.Substrate.cluster_hits + n)
    st'.Substrate.cluster_hits

(* The record is all the handle keeps per key: members and distances
   reach 2 words per member plus the headers of their two arrays and the
   pair, where a memoized [Dijkstra.tree] reached 4n words or more. *)
let test_cluster_retention () =
  let g = cluster_graph () in
  let n = Graph.n g in
  let sub = Substrate.create g in
  for w = 0 to n - 1 do
    let c = Substrate.cluster sub ~seed:11 ~target:8 w in
    let k = Array.length c.members in
    let words = Obj.reachable_words (Obj.repr (c.members, c.dists)) in
    checkb
      (Printf.sprintf "w=%d: %d members, %d words" w k words)
      true
      (words <= (2 * k) + 5)
  done

(* --- Cached catalog builds are bit-identical to uncached ones --- *)

let sweep_graph () = Generators.connect ~seed:21 (Generators.gnp ~seed:21 48 0.12)

let eval_of apsp inst =
  let n = Graph.n inst.Scheme.graph in
  let pairs = Scheme.sample_pairs ~seed:17 ~n ~count:300 in
  Scheme.evaluate inst apsp pairs

(* Build every catalog entry twice — once without a handle, once against
   [sub] — and require identical tables, labels and routed samples. *)
let assert_catalog_identical ~msg g sub =
  let apsp = Apsp.compute g in
  List.iter
    (fun (e : Catalog.entry) ->
      let plain, _ = e.Catalog.build ~seed:31 ~eps:0.5 g in
      let cached, _ = e.Catalog.build ~substrate:sub ~seed:31 ~eps:0.5 g in
      checkb
        (Printf.sprintf "%s: %s tables" msg e.Catalog.id)
        true
        (plain.Scheme.table_words = cached.Scheme.table_words);
      checkb
        (Printf.sprintf "%s: %s labels" msg e.Catalog.id)
        true
        (plain.Scheme.label_words = cached.Scheme.label_words);
      checkb
        (Printf.sprintf "%s: %s routed samples" msg e.Catalog.id)
        true
        (eval_of apsp plain = eval_of apsp cached))
    Catalog.all

let test_catalog_cached_identical_serial () =
  let g = sweep_graph () in
  assert_catalog_identical ~msg:"serial" g (Substrate.create g)

let test_catalog_cached_identical_4_domains () =
  let g = sweep_graph () in
  let restore = Pool.domains (Pool.default ()) in
  Pool.set_default_domains 4;
  Fun.protect
    ~finally:(fun () -> Pool.set_default_domains restore)
    (fun () -> assert_catalog_identical ~msg:"domains=4" g (Substrate.create g))

(* Rebuilding the same entry on a warm handle must hit for every shared
   substrate it consumes — the "computed once per sweep" guarantee. *)
let test_rebuild_is_all_hits () =
  let g = sweep_graph () in
  let sub = Substrate.create g in
  let e = Option.get (Catalog.find "rt-5eps") in
  ignore (e.Catalog.build ~substrate:sub ~seed:31 ~eps:0.5 g);
  let st1 = Substrate.stats sub in
  ignore (e.Catalog.build ~substrate:sub ~seed:31 ~eps:0.5 g);
  let st2 = Substrate.stats sub in
  checki "no new misses on rebuild" (Substrate.misses st1)
    (Substrate.misses st2);
  checkb "rebuild produced hits" true
    (Substrate.hits st2 > Substrate.hits st1)

(* The warm-up scheme and its name-independent variant share the same
   vicinity family: building both on one handle hits the vicinity cache. *)
let test_cross_scheme_vicinity_sharing () =
  let g = sweep_graph () in
  let sub = Substrate.create g in
  let e1 = Option.get (Catalog.find "rt-3eps") in
  let e2 = Option.get (Catalog.find "rt-3eps-ni") in
  ignore (e1.Catalog.build ~substrate:sub ~seed:31 ~eps:0.5 g);
  let st1 = Substrate.stats sub in
  ignore (e2.Catalog.build ~substrate:sub ~seed:31 ~eps:0.5 g);
  let st2 = Substrate.stats sub in
  checki "vicinity family computed once across the pair"
    st1.Substrate.vicinity_misses st2.Substrate.vicinity_misses;
  checkb "second scheme hit the vicinity cache" true
    (st2.Substrate.vicinity_hits > st1.Substrate.vicinity_hits)

(* --- One Thorup-Zwick state per handle --- *)

let tz_lookups st =
  (st.Substrate.scheme_state_hits, st.Substrate.scheme_state_misses)

let centers_lookups st = st.Substrate.centers_hits + st.Substrate.centers_misses

(* Theorem 16 stores the whole TZ scheme: on one handle, tz-k then
   rt-4km7-k build its state once, and the second build makes no center
   lookup of its own for it. *)
let test_tz_state_shared () =
  let g = sweep_graph () in
  List.iter
    (fun k ->
      let sub = Substrate.create g in
      let build id =
        let e = Option.get (Catalog.find (Printf.sprintf id k)) in
        ignore (e.Catalog.build ~substrate:sub ~seed:31 ~eps:0.5 g);
        Substrate.stats sub
      in
      let st1 = build "tz-k%d" in
      let st2 = build "rt-4km7-k%d" in
      let name = Printf.sprintf "k=%d: " k in
      check
        Alcotest.(pair int int)
        (name ^ "tz-k misses the TZ state") (0, 1) (tz_lookups st1);
      check
        Alcotest.(pair int int)
        (name ^ "rt-4km7-k hits it") (1, 1) (tz_lookups st2);
      checki (name ^ "no second center lookup") (centers_lookups st1)
        (centers_lookups st2))
    [ 3; 4 ]

(* The key is complete: a hit needs the same seed, k, resolved A_1 target
   and handle; an absent target is the default one. A handle of another
   graph is refused before the lookup, even when that graph is equal. *)
let test_tz_state_key () =
  let g = sweep_graph () in
  let sub = Substrate.create g in
  let tz ?a1_target ?(sub = sub) ?(g = g) ~seed k =
    Cr_baselines.Tz_routing.preprocess ~substrate:sub ?a1_target ~seed g ~k
  in
  let a = tz ~seed:5 3 in
  let misses () = snd (tz_lookups (Substrate.stats sub)) in
  checkb "same key: the same state" true (tz ~seed:5 3 == a);
  let target = Cr_baselines.Tz_hierarchy.default_a1_target ~n:(Graph.n g) ~k:3 in
  checkb "the default A_1 target, given: the same state" true
    (tz ~a1_target:target ~seed:5 3 == a);
  checki "no miss so far but the first" 1 (misses ());
  List.iteri
    (fun i (name, build) ->
      checkb (name ^ ": another state") true (build () != a);
      checki (name ^ ": a miss") (i + 2) (misses ()))
    [
      ("seed", fun () -> tz ~seed:6 3);
      ("k", fun () -> tz ~a1_target:target ~seed:5 4);
      ("A_1 target", fun () -> tz ~a1_target:(target + 1) ~seed:5 3);
    ];
  let other = Substrate.create g in
  checkb "another handle: another state" true (tz ~sub:other ~seed:5 3 != a);
  check
    Alcotest.(pair int int)
    "another handle misses" (0, 1)
    (tz_lookups (Substrate.stats other));
  checkb "a handle of another (equal) graph is refused" true
    (match tz ~g:(sweep_graph ()) ~seed:5 3 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let suite =
  [
    prop_csr_matches_reference;
    prop_neighbors_match_csr;
    prop_port_to_matches_naive_scan;
    case "substrate memoizes and counts" test_substrate_memoizes;
    case "substrate rejects a foreign graph" test_substrate_rejects_other_graph;
    case "cluster records match the reference search"
      test_cluster_matches_reference;
    case "cluster, tree and bunch lookups share one entry"
      test_cluster_lookups_hit;
    case "cluster records keep O(|C|) words" test_cluster_retention;
    case "substrate results match direct computation"
      test_substrate_results_match_direct;
    case "catalog cached = uncached (serial)"
      test_catalog_cached_identical_serial;
    case "catalog cached = uncached (4 domains)"
      test_catalog_cached_identical_4_domains;
    case "rebuild on a warm handle is all hits" test_rebuild_is_all_hits;
    case "rt-3eps and rt-3eps-ni share vicinities"
      test_cross_scheme_vicinity_sharing;
    case "tz-k and rt-4km7-k share one TZ state" test_tz_state_shared;
    case "the TZ state's key: seed, k, A_1 target, handle" test_tz_state_key;
  ]
