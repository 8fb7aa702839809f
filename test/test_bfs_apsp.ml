open Util
open Cr_graph

let test_bfs_grid () =
  let g = Generators.grid 3 4 in
  let r = Bfs.run g 0 in
  checki "manhattan distance" 5 r.dist.(11);
  checki "order length" 12 (Array.length r.order)

let test_bfs_parents_consistent () =
  let g = Generators.torus 3 3 in
  let r = Bfs.run g 0 in
  for v = 0 to 8 do
    if v <> 0 then begin
      let p = r.parent.(v) in
      checki "parent one closer" (r.dist.(v) - 1) r.dist.(p);
      checki "parent_port points here" v (Graph.endpoint g p r.parent_port.(v))
    end
  done

let test_components () =
  let g = Graph.of_edges ~n:7 [ (0, 1, 1.0); (1, 2, 1.0); (3, 4, 1.0) ] in
  let c = Bfs.components g in
  checkb "0,1,2 together" true (c.(0) = c.(1) && c.(1) = c.(2));
  checkb "3,4 together" true (c.(3) = c.(4));
  checkb "separate" true (c.(0) <> c.(3) && c.(5) <> c.(0) && c.(5) <> c.(6))

let test_eccentricity () =
  checki "path end" 9 (Bfs.eccentricity (Generators.path 10) 0);
  checki "path middle" 5 (Bfs.eccentricity (Generators.path 10) 4)

let test_double_sweep () =
  (* Exact on trees and paths, a lower bound elsewhere. *)
  checki "path" 9 (Bfs.double_sweep (Generators.path 10));
  checki "star" 2 (Bfs.double_sweep (Generators.star 8));
  let g = Generators.random_tree ~seed:3 60 in
  let apsp = Apsp.compute g in
  checki "tree exact" (int_of_float (Apsp.diameter apsp)) (Bfs.double_sweep g)

let prop_double_sweep_lower_bound =
  qcheck ~count:40 "double sweep never exceeds the diameter"
    arb_connected_graph (fun g ->
      let apsp = Apsp.compute g in
      float_of_int (Bfs.double_sweep g) <= Apsp.diameter apsp +. 1e-9)

let test_apsp_basic () =
  let g = Generators.cycle 8 in
  let a = Apsp.compute g in
  checkf "opposite side" 4.0 (Apsp.dist a 0 4);
  checkf "diameter" 4.0 (Apsp.diameter a);
  checkb "connected" true (Apsp.connected a)

let test_apsp_weighted_matches_dijkstra () =
  let g =
    Generators.with_random_weights ~seed:5 ~lo:0.5 ~hi:3.0 (Generators.grid 4 4)
  in
  let a = Apsp.compute g in
  let t = Dijkstra.spt g 3 in
  for v = 0 to 15 do
    checkf "same distance" t.dist.(v) (Apsp.dist a 3 v)
  done

let test_normalized_diameter () =
  let g = Graph.of_edges [ (0, 1, 2.0); (1, 2, 4.0) ] in
  let a = Apsp.compute g in
  checkf "D = 6/2" 3.0 (Apsp.normalized_diameter a)

let test_check_path () =
  let g = Generators.path 5 in
  let a = Apsp.compute g in
  checkb "valid path" true (Apsp.check_path a g [ 0; 1; 2 ] = Some 2.0);
  checkb "broken path" true (Apsp.check_path a g [ 0; 2 ] = None);
  checkb "empty path" true (Apsp.check_path a g [] = None);
  checkb "single vertex" true (Apsp.check_path a g [ 3 ] = Some 0.0)

let test_stretch () =
  let g = Generators.cycle 6 in
  let a = Apsp.compute g in
  checkf "detour stretch" (5.0 /. 1.0) (Apsp.stretch a ~src:0 ~dst:1 ~length:5.0);
  checkf "self stretch" 1.0 (Apsp.stretch a ~src:2 ~dst:2 ~length:0.0)

let test_io_roundtrip () =
  List.iter
    (fun (name, g) ->
      let g' = Graph_io.of_string (Graph_io.to_string g) in
      checkb (name ^ " roundtrip") true
        (Graph.n g = Graph.n g' && Graph.edges g = Graph.edges g'))
    (graph_zoo () @ weighted_zoo ())

let test_io_comments_and_errors () =
  let g = Graph_io.of_string "c hello\np 3 1\ne 0 2 1.5\n" in
  checkb "parsed" true (Graph.edge_weight g 0 2 = Some 1.5);
  checkb "missing header fails" true
    (try ignore (Graph_io.of_string "e 0 1 1.0\n"); false
     with Failure _ -> true);
  checkb "garbage fails" true
    (try ignore (Graph_io.of_string "p 2 1\nzzz\n"); false
     with Failure _ -> true)

(* The streaming file loader must report the 1-based line number of the
   offending line, so a bad row in a million-edge file is findable. *)
let test_io_load_error_position () =
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  let with_file contents f =
    let path = Filename.temp_file "cr_io_test" ".gr" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out path in
        output_string oc contents;
        close_out oc;
        f path)
  in
  (* Comment, header, one good edge, then garbage on line 4. *)
  with_file "c hello\np 4 3\ne 0 1 1.0\ne 1 x 1.0\ne 2 3 1.0\n" (fun path ->
      checkb "load reports the offending line" true
        (try ignore (Graph_io.load path); false
         with Failure msg -> contains msg "line 4"));
  with_file "p 2 1\ne 0 1 0.0\n" (fun path ->
      checkb "bad weight names its line" true
        (try ignore (Graph_io.load path); false
         with Failure msg -> contains msg "line 2"));
  with_file "c ok\np 3 2\ne 0 1 2.5\ne 1 2 1.0\n" (fun path ->
      let g = Graph_io.load path in
      checki "clean file loads" 2 (Graph.m g);
      checkb "weights kept" true (Graph.edge_weight g 0 1 = Some 2.5));
  (* And the save/load file roundtrip is exact. *)
  let g = Generators.with_random_weights ~seed:11 ~lo:0.5 ~hi:2.0
      (Generators.torus 4 4) in
  let path = Filename.temp_file "cr_io_test" ".gr" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Graph_io.save g path;
      checkb "save/load roundtrip" true (Graph.edges (Graph_io.load path) = Graph.edges g))

(* The O(n^2)-memory guard: a threshold from CR_QUADRATIC_MAX_N, restored
   to its default by setting the empty string (the process cannot unset
   it). *)
let test_quadratic_guard () =
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  let g = Generators.path 100 in
  Fun.protect
    ~finally:(fun () -> Unix.putenv "CR_QUADRATIC_MAX_N" "")
    (fun () ->
      Unix.putenv "CR_QUADRATIC_MAX_N" "64";
      checkb "Apsp.compute trips above the threshold" true
        (try
           ignore (Apsp.compute g);
           false
         with Failure msg ->
           contains msg "Apsp.compute" && contains msg "CR_QUADRATIC_MAX_N");
      checkb "the guard message names the caller" true
        (try
           ignore (Apsp.compute ~caller:"rt-5eps stats oracle" g);
           false
         with Failure msg ->
           contains msg "Apsp.compute (for rt-5eps stats oracle)");
      checkb "Full_tables.preprocess trips too" true
        (try
           ignore (Cr_baselines.Full_tables.preprocess g);
           false
         with Failure msg -> contains msg "Full_tables.preprocess");
      Unix.putenv "CR_QUADRATIC_MAX_N" "128";
      checkb "override admits the build" true
        (try
           ignore (Apsp.compute g);
           true
         with Failure _ -> false);
      Unix.putenv "CR_QUADRATIC_MAX_N" "";
      checkb "defaults admit n=100" true
        (try
           ignore (Apsp.compute g);
           true
         with Failure _ -> false))

let suite =
  [
    case "bfs on grid" test_bfs_grid;
    case "bfs parents consistent" test_bfs_parents_consistent;
    case "connected components" test_components;
    case "eccentricity" test_eccentricity;
    case "double-sweep diameter estimate" test_double_sweep;
    prop_double_sweep_lower_bound;
    case "apsp on a cycle" test_apsp_basic;
    case "apsp matches dijkstra (weighted)" test_apsp_weighted_matches_dijkstra;
    case "normalized diameter" test_normalized_diameter;
    case "path checking" test_check_path;
    case "stretch computation" test_stretch;
    case "graph io roundtrip over the zoo" test_io_roundtrip;
    case "graph io comments and errors" test_io_comments_and_errors;
    case "graph io load error positions" test_io_load_error_position;
    case "quadratic-memory guard env vars" test_quadratic_guard;
  ]
