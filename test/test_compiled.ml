(* The compiled containers, the forwarding plane built on them, and the
   batched query engine.

   The contract under test: each container answers exactly as the
   hashtable it replaces; tree routing takes the shortest-path-tree next
   hop; turning the simulator knobs off changes no routing decision — for
   every scheme in the catalog the verdict, final vertex, length, hop
   count and header peak are the same, only the path is omitted; and
   [Scheme.evaluate_batch] is bit-identical to the serial
   [Scheme.evaluate] regardless of domain count. Bit-identity with the
   routes of earlier revisions is pinned by the golden digests in
   [test_golden_routes.ml]. *)
open Util
open Cr_graph
open Cr_routing
open Cr_core

(* ------------------------------------------------------------------ *)
(* Compiled containers vs the hashtables they are built from           *)
(* ------------------------------------------------------------------ *)

let gen_bindings =
  QCheck2.Gen.(
    small_list (pair (int_range 0 500) (int_range 0 1_000_000)))

let test_intmap_matches_hashtbl =
  qcheck ~count:300 "Intmap.of_hashtbl answers as Hashtbl.find" gen_bindings
    (fun bindings ->
      let h = Hashtbl.create 16 in
      List.iter (fun (k, v) -> Hashtbl.replace h k v) bindings;
      let m = Compiled.Intmap.of_hashtbl h in
      Compiled.Intmap.cardinal m = Hashtbl.length h
      && List.for_all
           (fun k ->
             Compiled.Intmap.find_opt m k = Hashtbl.find_opt h k
             && Compiled.Intmap.mem m k = Hashtbl.mem h k)
           (List.init 520 Fun.id))

let test_intmap_sparse =
  qcheck ~count:100 "Intmap falls back to binary search on sparse keys"
    QCheck2.Gen.(small_list (int_range 0 1_000_000))
    (fun keys ->
      let h = Hashtbl.create 16 in
      List.iter (fun k -> Hashtbl.replace h k (k * 2)) keys;
      let m = Compiled.Intmap.of_hashtbl h in
      List.for_all
        (fun k ->
          Compiled.Intmap.find m k = k * 2
          && not (Compiled.Intmap.mem m (k + 1_000_001)))
        keys)

(* Random pair arrays for [Intmap.of_pairs]: m distinct keys drawn from a
   dense span (at most ~4 slots per key, around the Direct threshold) or
   a sparse one (up to 30 slots per key), offset from 0, in random order,
   with random non-negative values. *)
let gen_pairs =
  QCheck2.Gen.(
    let* m = int_range 0 2000 in
    let* sparse = bool in
    let* slots = if sparse then int_range 5 30 else int_range 1 4 in
    let* off = int_range 0 100_000 in
    let* seed = int_range 0 1_000_000 in
    let st = Random.State.make [| seed |] in
    let span = max 1 (m * slots) in
    let used = Hashtbl.create (2 * m + 1) in
    let pairs =
      Array.init m (fun _ ->
          let rec fresh () =
            let k = off + Random.State.int st span in
            if Hashtbl.mem used k then fresh () else k
          in
          let k = fresh () in
          Hashtbl.replace used k ();
          (k, Random.State.int st 1_000_000_000))
    in
    return pairs)

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let test_intmap_of_pairs =
  qcheck ~count:60 "Intmap.of_pairs equals of_sorted" gen_pairs (fun pairs ->
      let m = Array.length pairs in
      let sorted = Array.copy pairs in
      Array.sort compare sorted;
      let reference = Hashtbl.create (2 * m + 1) in
      Array.iter (fun (k, v) -> Hashtbl.replace reference k v) pairs;
      let lo = if m = 0 then 0 else fst sorted.(0) - 2
      and hi = if m = 0 then 0 else fst sorted.(m - 1) + 2 in
      let before = Array.copy pairs in
      let a = Compiled.Intmap.of_pairs pairs in
      let b =
        Compiled.Intmap.of_sorted ~keys:(Array.map fst sorted)
          ~vals:(Array.map snd sorted)
      in
      let same_answers = ref true in
      for k = lo to hi do
        let r = Hashtbl.find_opt reference k in
        if
          Compiled.Intmap.find_opt a k <> r
          || Compiled.Intmap.find_opt b k <> r
          || Compiled.Intmap.mem a k <> Option.is_some r
          || Compiled.Intmap.mem b k <> Option.is_some r
        then same_answers := false
      done;
      let bad f =
        let c = Array.copy pairs in
        f c;
        raises_invalid (fun () -> Compiled.Intmap.of_pairs c)
      in
      a = b && pairs = before && !same_answers
      && Compiled.Intmap.cardinal a = m
      (* A negative key, a negative value, a duplicate key. *)
      && (m = 0
         || bad (fun c -> c.(m / 2) <- (-1 - fst c.(m / 2), 0))
            && bad (fun c -> c.(m / 2) <- (fst c.(m / 2), -1))
            && (m < 2 || bad (fun c -> c.(m - 1) <- (fst c.(0), 0)))))

(* Marshal keeps sharing, so a residue writes the one empty map once;
   an empty map allocated per call would be written at every use and
   shift the residue bytes after it. *)
let test_intmap_empty_shared () =
  let e = Compiled.Intmap.of_sorted ~keys:[||] ~vals:[||] in
  checkb "of_pairs" true (Compiled.Intmap.of_pairs [||] == e);
  checkb "of_hashtbl" true (Compiled.Intmap.of_hashtbl (Hashtbl.create 1) == e);
  checkb "of_sorted" true (Compiled.Intmap.of_sorted ~keys:[||] ~vals:[||] == e)

let test_table_matches_hashtbl =
  qcheck ~count:200 "Table.of_hashtbl answers as Hashtbl.find" gen_bindings
    (fun bindings ->
      let h = Hashtbl.create 16 in
      List.iter (fun (k, v) -> Hashtbl.replace h k (string_of_int v)) bindings;
      let t = Compiled.Table.of_hashtbl h in
      Compiled.Table.cardinal t = Hashtbl.length h
      && List.for_all
           (fun k -> Compiled.Table.find_opt t k = Hashtbl.find_opt h k)
           (List.init 520 Fun.id))

let test_bitset_matches_hashtbl =
  qcheck ~count:200 "Bitset.of_hashtbl_keys answers as Hashtbl.mem"
    QCheck2.Gen.(small_list (int_range 0 99))
    (fun keys ->
      let h = Hashtbl.create 16 in
      List.iter (fun k -> Hashtbl.replace h k ()) keys;
      let s = Compiled.Bitset.of_hashtbl_keys ~n:100 h in
      Compiled.Bitset.cardinal s = Hashtbl.length h
      && List.for_all
           (fun k -> Compiled.Bitset.mem s k = Hashtbl.mem h k)
           (List.init 100 Fun.id)
      && (not (Compiled.Bitset.mem s 100))
      && not (Compiled.Bitset.mem s (-1)))

(* ------------------------------------------------------------------ *)
(* Tree routing against the next hop read off the SPT parent array    *)
(* ------------------------------------------------------------------ *)

(* Test-only next-hop rule on the tree given by [parent]: deliver at
   [dst]; if [at] is an ancestor of [dst], forward to [at]'s child on the
   root->[dst] path; otherwise forward to [at]'s parent. *)
let spt_next_hop g parent ~at ~dst =
  if at = dst then `Deliver
  else begin
    let rec climb below v =
      if v < 0 then None else if v = at then Some below else climb v parent.(v)
    in
    let next =
      match climb dst parent.(dst) with Some child -> child | None -> parent.(at)
    in
    `Forward (Option.get (Graph.port_to g at next))
  end

let test_tree_step_spt =
  qcheck ~count:40 "Tree_routing.step == SPT hop" arb_weighted_connected_graph
    (fun g ->
      let spt = Dijkstra.spt g 0 in
      let t = Tree_routing.of_tree g spt in
      let members = Tree_routing.members t in
      Array.for_all
        (fun dst ->
          let lbl = Tree_routing.label t dst in
          Array.for_all
            (fun at ->
              let want = spt_next_hop g spt.Dijkstra.parent ~at ~dst in
              Tree_routing.step t ~at lbl = want
              && Tree_routing.step_interval t ~at lbl = want)
            members)
        members)

(* ------------------------------------------------------------------ *)
(* Whole catalog: the simulator knobs change nothing but the path      *)
(* ------------------------------------------------------------------ *)

(* Same outcome except the path, which must be omitted. *)
let outcomes_equal_pathless (a : Port_model.outcome) (b : Port_model.outcome) =
  a.Port_model.verdict = b.Port_model.verdict
  && a.Port_model.final = b.Port_model.final
  && b.Port_model.path = []
  && a.Port_model.length = b.Port_model.length
  && a.Port_model.hops = b.Port_model.hops
  && a.Port_model.header_words_peak = b.Port_model.header_words_peak

let catalog_graph seed =
  Generators.connect ~seed (Generators.gnp ~seed:(seed + 400) 44 0.12)

(* Every catalog entry, plus the lazy rt-5eps and rt-4km7-k3 stores, on a
   healthy network and under a plan that fails links and vertices and drops
   and corrupts messages in flight. A scheme's run has no bounce or
   corruption hook, so it ends at its first fault event, and the knobs
   still change nothing but the path. *)
let test_catalog_fast_matches_route =
  qcheck ~count:4
    "catalog: route_fast == route on sampled pairs, healthy and under faults"
    QCheck2.Gen.(int_range 0 1_000)
    (fun seed ->
      let g = catalog_graph seed in
      let n = Graph.n g in
      let pairs = Scheme.sample_pairs ~seed ~n ~count:120 in
      let plan =
        Fault.compile
          (Fault.spec ~seed ~link_failure_rate:0.1 ~vertex_failure_rate:0.05
             ~drop_prob:0.05 ~corrupt_prob:0.05 ())
          g
      in
      let seed = seed + 7 in
      let insts =
        List.map (fun (e : Catalog.entry) -> fst (e.Catalog.build ~seed ~eps:0.5 g))
          Catalog.all
        @ [
            Scheme5eps.instance
              (Scheme5eps.preprocess ~eps:0.5 ~mode:`Lazy ~seed g);
            Scheme4km7.instance
              (Scheme4km7.preprocess ~eps:0.5 ~mode:`Lazy ~seed g ~k:3);
          ]
      in
      List.for_all
        (fun inst ->
          List.for_all
            (fun faults ->
              List.for_all
                (fun (u, v) ->
                  let knobs_on = Scheme.route ?faults inst ~src:u ~dst:v in
                  let knobs_off =
                    Scheme.route_fast ?faults ~record_path:false
                      ~detect_loops:false inst ~src:u ~dst:v
                  in
                  Scheme.route_fast ?faults inst ~src:u ~dst:v = knobs_on
                  && outcomes_equal_pathless knobs_on knobs_off)
                pairs)
            [ None; Some plan ])
        insts)

(* ------------------------------------------------------------------ *)
(* Batched query engine: bit-identical merges at any domain count      *)
(* ------------------------------------------------------------------ *)

let test_batch_matches_serial () =
  let g = catalog_graph 11 in
  let apsp = Apsp.compute g in
  let pairs = Scheme.sample_pairs ~seed:23 ~n:(Graph.n g) ~count:150 in
  let pool1 = Pool.create ~domains:1 () in
  let pool4 = Pool.create ~domains:4 () in
  List.iter
    (fun (e : Catalog.entry) ->
      let inst, _ = e.Catalog.build ~seed:9 ~eps:0.5 g in
      let serial = Scheme.evaluate inst apsp pairs in
      checkb (e.Catalog.id ^ " 1-domain fast") true
        (Scheme.evaluate_batch ~pool:pool1 inst apsp pairs = serial);
      checkb (e.Catalog.id ^ " 4-domain fast") true
        (Scheme.evaluate_batch ~pool:pool4 inst apsp pairs = serial);
      checkb (e.Catalog.id ^ " 4-domain knobs on") true
        (Scheme.evaluate_batch ~pool:pool4 ~fast:false inst apsp pairs = serial))
    Catalog.all

let test_batch_matches_serial_under_faults () =
  (* With [~fast:false] the batch engine routes with both knobs on, as
     [evaluate_under_faults] does, so it must match it bit for bit even
     when faults make verdicts diverge between the two knob settings. *)
  let g = catalog_graph 17 in
  let apsp = Apsp.compute g in
  let pairs = Scheme.sample_pairs ~seed:29 ~n:(Graph.n g) ~count:120 in
  let plan = Fault.compile (Fault.spec ~seed:71 ~link_failure_rate:0.05 ()) g in
  let pool = Pool.create ~domains:4 () in
  List.iter
    (fun (e : Catalog.entry) ->
      let inst, _ = e.Catalog.build ~seed:13 ~eps:0.5 g in
      let serial = Scheme.evaluate_under_faults ~faults:plan inst apsp pairs in
      checkb e.Catalog.id true
        (Scheme.evaluate_batch ~pool ~faults:plan ~fast:false inst apsp pairs
        = serial))
    Catalog.all

(* ------------------------------------------------------------------ *)
(* sample_pairs: the dense regime must not coupon-collect              *)
(* ------------------------------------------------------------------ *)

let test_sample_pairs_dense_terminates () =
  (* count = all - 1 used to rejection-sample the last few pairs for
     coupon-collector time; the enumerate-and-shuffle branch is O(n^2). *)
  let n = 60 in
  let all = n * (n - 1) in
  let pairs = Scheme.sample_pairs ~seed:3 ~n ~count:(all - 1) in
  checki "count" (all - 1) (List.length pairs);
  let seen = Hashtbl.create all in
  List.iter
    (fun (u, v) ->
      checkb "distinct endpoints" true (u <> v);
      checkb "in range" true (u >= 0 && u < n && v >= 0 && v < n);
      checkb "no duplicate pair" false (Hashtbl.mem seen (u, v));
      Hashtbl.replace seen (u, v) ())
    pairs

let test_sample_pairs_all () =
  let n = 12 in
  let all = n * (n - 1) in
  checki "count >= all returns all" all
    (List.length (Scheme.sample_pairs ~seed:3 ~n ~count:(all + 5)));
  (* The dense branch stays deterministic per seed. *)
  checkb "deterministic" true
    (Scheme.sample_pairs ~seed:4 ~n ~count:(all - 3)
    = Scheme.sample_pairs ~seed:4 ~n ~count:(all - 3))

(* ------------------------------------------------------------------ *)
(* Percentiles: NaN-safe, one sort serves many reads                   *)
(* ------------------------------------------------------------------ *)

let test_percentiles () =
  let ev =
    {
      Scheme.samples = Array.init 100 (fun i -> (1.0, float_of_int (i + 1)));
      failures = 0;
      header_words_peak = 0;
    }
  in
  checkf "p50" 50.0 (Scheme.percentile_stretch ev 0.5);
  checkf "p99" 99.0 (Scheme.percentile_stretch ev 0.99);
  (match Scheme.percentiles ev [ 0.5; 0.99; 1.0 ] with
  | [ a; b; c ] ->
    checkf "batch p50" 50.0 a;
    checkf "batch p99" 99.0 b;
    checkf "batch p100" 100.0 c
  | _ -> Alcotest.fail "percentiles arity");
  (* A NaN sample must not poison the maximum (Float.compare orders it). *)
  let evn =
    {
      Scheme.samples = [| (1.0, 3.0); (0.0, 0.0); (1.0, 2.0) |];
      failures = 0;
      header_words_peak = 0;
    }
  in
  checkf "NaN-safe max" 3.0 (Scheme.max_stretch evn)

let suite =
  [
    test_intmap_matches_hashtbl;
    test_intmap_sparse;
    test_intmap_of_pairs;
    test_table_matches_hashtbl;
    test_bitset_matches_hashtbl;
    test_tree_step_spt;
    test_catalog_fast_matches_route;
    case "evaluate_batch == evaluate (1 and 4 domains)" test_batch_matches_serial;
    case "evaluate_batch ~fast:false == evaluate_under_faults"
      test_batch_matches_serial_under_faults;
    case "sample_pairs count=all-1 terminates" test_sample_pairs_dense_terminates;
    case "sample_pairs dense edge cases" test_sample_pairs_all;
    case "percentiles and NaN safety" test_percentiles;
    case "empty Intmaps are one shared block" test_intmap_empty_shared;
  ]
