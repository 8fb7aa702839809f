(* The parallel preprocessing engine: pooled sweeps must be bit-identical
   to serial runs, and reused workspaces must behave like fresh ones. *)
open Util
open Cr_graph
open Cr_routing

let serial () = Pool.create ~domains:1 ()

let wide () = Pool.create ~domains:3 ()

(* --- Pool basics --- *)

let test_create_widths () =
  checki "explicit width" 3 (Pool.domains (wide ()));
  checki "clamped above" 64 (Pool.domains (Pool.create ~domains:1000 ()));
  checkb "zero rejected" true
    (try ignore (Pool.create ~domains:0 ()); false
     with Invalid_argument _ -> true)

let test_map_is_array_init () =
  List.iter
    (fun n ->
      let expect = Array.init n (fun i -> (i * i) - 3) in
      checkb
        (Printf.sprintf "map n=%d" n)
        true
        (Pool.map (wide ()) ~n (fun i -> (i * i) - 3) = expect))
    [ 0; 1; 2; 7; 100; 1000 ]

let test_iter_covers_every_index () =
  let n = 257 in
  let hits = Array.make n 0 in
  (* Distinct slots only — the determinism contract. *)
  Pool.iter (wide ()) ~n (fun i -> hits.(i) <- hits.(i) + 1);
  checkb "each index exactly once" true (Array.for_all (( = ) 1) hits)

let test_exception_propagates () =
  checkb "raise in worker reaches caller" true
    (try
       Pool.iter (wide ()) ~n:50 (fun i -> if i = 31 then failwith "boom");
       false
     with Failure m -> m = "boom")

let test_map_local_scratch () =
  (* Per-worker scratch is private: each call sees a buffer it can clobber. *)
  let r =
    Pool.map_local (wide ()) ~n:200
      ~local:(fun () -> Buffer.create 8)
      (fun b i ->
        Buffer.clear b;
        Buffer.add_string b (string_of_int i);
        Buffer.contents b)
  in
  checkb "scratch never bleeds" true (r = Array.init 200 string_of_int)

(* --- Parallel == serial, structure by structure --- *)

let same_vicinity a b =
  Vicinity.source a = Vicinity.source b
  && Vicinity.members a = Vicinity.members b
  && Vicinity.radius a = Vicinity.radius b
  && Vicinity.max_dist a = Vicinity.max_dist b
  && Array.for_all
       (fun v ->
         Vicinity.dist a v = Vicinity.dist b v
         && (v = Vicinity.source a || Vicinity.first_port a v = Vicinity.first_port b v))
       (Vicinity.members a)

let prop_vicinities_identical =
  qcheck ~count:40 "compute_all: parallel == serial (members/dists/ports/radius)"
    QCheck2.Gen.(
      let* g = arb_weighted_connected_graph in
      let* l = int_range 1 12 in
      return (g, l))
    (fun (g, l) ->
      let a = Vicinity.compute_all ~pool:(serial ()) g l in
      let b = Vicinity.compute_all ~pool:(wide ()) g l in
      Array.length a = Array.length b
      && Array.for_all2 same_vicinity a b)

let prop_vicinities_identical_unweighted =
  qcheck ~count:40 "compute_all on unweighted graphs: parallel == serial"
    QCheck2.Gen.(
      let* g = arb_connected_graph in
      let* l = int_range 1 12 in
      return (g, l))
    (fun (g, l) ->
      let a = Vicinity.compute_all ~pool:(serial ()) g l in
      let b = Vicinity.compute_all ~pool:(wide ()) g l in
      Array.for_all2 same_vicinity a b)

let same_apsp g a b =
  let n = Graph.n g in
  let ok = ref true in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      (* Exact float equality: same additions in the same order. *)
      if not (Float.equal (Apsp.dist a u v) (Apsp.dist b u v)) then ok := false
    done
  done;
  !ok

let prop_apsp_identical =
  qcheck ~count:30 "Apsp.compute: parallel == serial, exact floats"
    arb_weighted_connected_graph
    (fun g ->
      same_apsp g
        (Apsp.compute ~pool:(serial ()) g)
        (Apsp.compute ~pool:(wide ()) g))

let prop_apsp_identical_unweighted =
  qcheck ~count:30 "Apsp.compute (BFS path): parallel == serial"
    arb_connected_graph
    (fun g ->
      same_apsp g
        (Apsp.compute ~pool:(serial ()) g)
        (Apsp.compute ~pool:(wide ()) g))

let test_empty_and_singleton () =
  List.iter
    (fun n ->
      let g = Graph.of_edges ~n [] in
      let a = Vicinity.compute_all ~pool:(serial ()) g 4 in
      let b = Vicinity.compute_all ~pool:(wide ()) g 4 in
      checki (Printf.sprintf "n=%d vicinity count" n) n (Array.length b);
      checkb "identical" true (Array.for_all2 same_vicinity a b);
      checkb "apsp identical" true
        (same_apsp g (Apsp.compute ~pool:(serial ()) g)
           (Apsp.compute ~pool:(wide ()) g)))
    [ 0; 1 ]

let test_zoo_identical () =
  List.iter
    (fun (name, g) ->
      let a = Vicinity.compute_all ~pool:(serial ()) g 6 in
      let b = Vicinity.compute_all ~pool:(wide ()) g 6 in
      checkb (name ^ " identical") true (Array.for_all2 same_vicinity a b))
    (graph_zoo () @ weighted_zoo ())

(* Whole-scheme determinism: a TZ build with a wide pool routes exactly as
   the serial build on the same seed, and its tables have the same sizes. *)
let test_tz_scheme_identical () =
  let g =
    Generators.with_random_weights ~seed:21 ~lo:0.5 ~hi:4.0
      (Generators.connect ~seed:2 (Generators.gnp ~seed:22 60 0.08))
  in
  let t1 = Cr_baselines.Tz_routing.preprocess ~pool:(serial ()) ~seed:5 g ~k:3 in
  let t2 = Cr_baselines.Tz_routing.preprocess ~pool:(wide ()) ~seed:5 g ~k:3 in
  checkb "table words" true
    (Cr_baselines.Tz_routing.table_words t1 = Cr_baselines.Tz_routing.table_words t2);
  checkb "label words" true
    (Cr_baselines.Tz_routing.base_label_words t1
    = Cr_baselines.Tz_routing.base_label_words t2);
  List.iter
    (fun (src, dst) ->
      let o1 = Cr_baselines.Tz_routing.route t1 ~src ~dst in
      let o2 = Cr_baselines.Tz_routing.route t2 ~src ~dst in
      checkb "same route" true (o1 = o2))
    (Scheme.sample_pairs ~seed:7 ~n:(Graph.n g) ~count:120)

(* The batched query engines over lazy rt instances: the mutex-guarded
   on-demand stores (Lemma 8 pair and destination-tree caches, cluster
   trees) are filled concurrently by the worker domains, in a
   schedule-dependent order. Each 4-domain eval starts from a cold
   instance; it must still be bit-identical to the 1-domain run, and to the
   serial reference evaluate, with the simulator knobs off and on — for
   rt-5eps and rt-4km7-k3, on a graph with float64 weights and on one
   with float32 weights. *)
let test_lazy_rt_eval_identical () =
  let float64 =
    Generators.with_random_weights ~seed:23 ~lo:0.5 ~hi:4.0
      (Generators.power_law ~seed:24 600)
  in
  let float32 =
    Graph.pack ~float32:true
      (Generators.with_random_weights ~seed:25 ~lo:1.0 ~hi:8.0
         (Generators.glp ~seed:26 600))
  in
  let four () = Pool.create ~domains:4 () in
  List.iter
    (fun (gname, g) ->
      let pairs = Scheme.sample_pairs ~seed:7 ~n:(Graph.n g) ~count:400 in
      let apsp = Apsp.compute g in
      let sampled =
        List.map (fun (u, v) -> ((u, v), Apsp.dist apsp u v)) pairs
      in
      List.iter
        (fun (sname, cold) ->
          let warm = cold () in
          List.iter
            (fun fast ->
              let tag =
                Printf.sprintf "%s %s %s" sname gname
                  (if fast then "knobs off" else "knobs on")
              in
              let inst = cold () in
              let batch pool i = Scheme.evaluate_batch ~pool ~fast i apsp pairs in
              let b4 = batch (four ()) inst and b1 = batch (serial ()) warm in
              checkb (tag ^ " batch 1 = 4 domains") true (b1 = b4);
              let by_dist pool i = Scheme.evaluate_sampled ~pool ~fast i sampled in
              let s4 = by_dist (four ()) inst and s1 = by_dist (serial ()) warm in
              checkb (tag ^ " sampled 1 = 4 domains") true (s1 = s4);
              checkb (tag ^ " batch = sampled") true (b1 = s1);
              if not fast then
                checkb (tag ^ " batch = serial evaluate") true
                  (b4 = Scheme.evaluate warm apsp pairs))
            [ false; true ])
        [
          ( "rt-5eps",
            fun () ->
              Cr_core.Scheme5eps.instance
                (Cr_core.Scheme5eps.preprocess ~mode:`Lazy ~seed:31 g) );
          ( "rt-4km7-k3",
            fun () ->
              Cr_core.Scheme4km7.instance
                (Cr_core.Scheme4km7.preprocess ~mode:`Lazy ~seed:31 g ~k:3) );
        ])
    [ ("float64", float64); ("float32", float32) ]

(* --- Workspace reuse == fresh runs --- *)

let test_workspace_reuse_spt () =
  let g =
    Generators.with_random_weights ~seed:3 ~lo:0.5 ~hi:3.0
      (Generators.torus 5 6)
  in
  let n = Graph.n g in
  let ws = Dijkstra.workspace n in
  for s = 0 to n - 1 do
    let fresh = Dijkstra.spt g s in
    Dijkstra.with_spt ws g s (fun t ->
        checkb
          (Printf.sprintf "spt s=%d" s)
          true
          (t.Dijkstra.dist = fresh.Dijkstra.dist
          && t.Dijkstra.parent = fresh.Dijkstra.parent
          && t.Dijkstra.first_port = fresh.Dijkstra.first_port
          && t.Dijkstra.order = fresh.Dijkstra.order))
  done

let test_workspace_reuse_truncated () =
  let g =
    Generators.with_random_weights ~seed:4 ~lo:0.5 ~hi:3.0
      (Generators.grid 4 8)
  in
  let n = Graph.n g in
  let ws = Dijkstra.workspace n in
  List.iter
    (fun l ->
      for s = 0 to n - 1 do
        let a = Dijkstra.truncated g s l in
        let b = Dijkstra.truncated_ws ws g s l in
        checkb (Printf.sprintf "truncated s=%d l=%d" s l) true
          (a.Dijkstra.vertices = b.Dijkstra.vertices
          && a.Dijkstra.dists = b.Dijkstra.dists
          && a.Dijkstra.parents = b.Dijkstra.parents
          && a.Dijkstra.first_ports = b.Dijkstra.first_ports
          && a.Dijkstra.next_dist = b.Dijkstra.next_dist)
      done)
    [ 1; 3; 7; n; n + 5 ]

let test_workspace_reuse_restricted () =
  let g = Generators.barabasi_albert ~seed:6 40 2 in
  let n = Graph.n g in
  (* Restrict by distance to a fixed center set, like a TZ cluster. *)
  let m = Dijkstra.multi_source g [ 0; 7; 19 ] in
  let limit = m.Dijkstra.dist_to_set in
  let ws = Dijkstra.workspace n in
  for w = 0 to n - 1 do
    let fresh = Dijkstra.restricted g w ~limit in
    Dijkstra.with_restricted ws g w ~limit (fun t ->
        checkb
          (Printf.sprintf "restricted w=%d" w)
          true
          (t.Dijkstra.dist = fresh.Dijkstra.dist
          && t.Dijkstra.parent = fresh.Dijkstra.parent
          && t.Dijkstra.order = fresh.Dijkstra.order))
  done

let test_workspace_reset_on_raise () =
  let g = Generators.path 8 in
  let ws = Dijkstra.workspace 8 in
  let exception Stop in
  (try Dijkstra.with_spt ws g 3 (fun _ -> raise Stop) with Stop -> ());
  (* A raise inside the callback must not poison the next search. *)
  let fresh = Dijkstra.spt g 0 in
  Dijkstra.with_spt ws g 0 (fun t ->
      checkb "clean after raise" true
        (t.Dijkstra.dist = fresh.Dijkstra.dist
        && t.Dijkstra.order = fresh.Dijkstra.order))

let suite =
  [
    case "pool widths and clamping" test_create_widths;
    case "map == Array.init" test_map_is_array_init;
    case "iter covers every index once" test_iter_covers_every_index;
    case "worker exceptions propagate" test_exception_propagates;
    case "per-worker scratch is private" test_map_local_scratch;
    prop_vicinities_identical;
    prop_vicinities_identical_unweighted;
    prop_apsp_identical;
    prop_apsp_identical_unweighted;
    case "n=0 and n=1 graphs" test_empty_and_singleton;
    case "deterministic zoo identical" test_zoo_identical;
    case "TZ scheme: parallel build routes identically" test_tz_scheme_identical;
    case "lazy rt instance: batched evals identical across domains"
      test_lazy_rt_eval_identical;
    case "workspace reuse: spt" test_workspace_reuse_spt;
    case "workspace reuse: truncated" test_workspace_reuse_truncated;
    case "workspace reuse: restricted" test_workspace_reuse_restricted;
    case "workspace survives a raising callback" test_workspace_reset_on_raise;
  ]
