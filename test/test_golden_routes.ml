(* Golden route digests: the reference every forwarding-plane change is
   held to.

   Each digest is one MD5 over everything a catalog instance answers on a
   fixed graph: for each routed pair, the verdict (with its location
   payload), the final vertex, the visited path, the length (hex float,
   so every bit counts), the hop count and the header peak; then the
   per-vertex [table_words] and [label_words]. Routes run with path
   recording and loop detection on. The smallest graph routes every
   ordered pair; the others a fixed 400-pair sample.

   The digests below were computed by this file's own [digest] function
   and are committed as data: a change to any scheme's tables, step
   function, header accounting or the simulator that moves a single
   decision shows up here as a mismatch. They must hold with telemetry
   on. *)
open Util
open Cr_graph
open Cr_routing
open Cr_core

let catalog_graph seed =
  Generators.connect ~seed (Generators.gnp ~seed:(seed + 400) 44 0.12)

let graphs =
  [
    ("gnp44", catalog_graph 3, `All);
    ("glp120", Generators.glp ~seed:17 120, `Sample 400);
    ( "wgnp80",
      Generators.with_random_weights ~seed:19 ~lo:0.5 ~hi:4.0
        (Generators.connect ~seed:23 (Generators.gnp ~seed:29 80 0.06)),
      `Sample 400 );
  ]

let pairs_of g = function
  | `All ->
    let n = Graph.n g in
    Scheme.sample_pairs ~seed:0 ~n ~count:(n * (n - 1))
  | `Sample count -> Scheme.sample_pairs ~seed:31 ~n:(Graph.n g) ~count

let digest ?faults inst pairs =
  let b = Buffer.create 4096 in
  List.iter
    (fun (src, dst) ->
      let o = Scheme.route ?faults inst ~src ~dst in
      Buffer.add_string b
        (Format.asprintf "%d>%d %a %d [%s] %h %d %d\n" src dst
           Port_model.pp_verdict o.Port_model.verdict o.Port_model.final
           (String.concat "," (List.map string_of_int o.Port_model.path))
           o.Port_model.length o.Port_model.hops
           o.Port_model.header_words_peak))
    pairs;
  let words a =
    String.concat "," (Array.to_list (Array.map string_of_int a))
  in
  Buffer.add_string b ("T " ^ words inst.Scheme.table_words ^ "\n");
  Buffer.add_string b ("L " ^ words inst.Scheme.label_words ^ "\n");
  Digest.to_hex (Digest.string (Buffer.contents b))

let seed = 5

let eps = 0.5

let build (e : Catalog.entry) g = fst (e.Catalog.build ~seed ~eps g)

(* Every (key, digest thunk) the golden table covers on one graph: the
   catalog entries the graph suits, the lazy-mode rt-5eps and rt-4km7-k3
   stores, and two resilience-wrapped schemes under a fixed 5% link-
   failure plan. *)
let cases (gname, g, sel) =
  let pairs = pairs_of g sel in
  let weighted = not (Graph.is_unit_weighted g) in
  let key id = id ^ "/" ^ gname in
  let catalog =
    List.filter_map
      (fun (e : Catalog.entry) ->
        if weighted && not e.Catalog.weighted_ok then None
        else Some (key e.Catalog.id, fun () -> digest (build e g) pairs))
      Catalog.all
  in
  let lazy_ =
    [
      ( key "rt-5eps-lazy",
        fun () ->
          digest
            (Scheme5eps.instance (Scheme5eps.preprocess ~mode:`Lazy ~eps ~seed g))
            pairs );
      ( key "rt-4km7-k3-lazy",
        fun () ->
          digest
            (Scheme4km7.instance
               (Scheme4km7.preprocess ~mode:`Lazy ~eps ~seed g ~k:3))
            pairs );
    ]
  in
  let plan = Fault.compile (Fault.spec ~seed:41 ~link_failure_rate:0.05 ()) g in
  let resilient =
    List.map
      (fun id ->
        let e = Option.get (Catalog.find id) in
        ( key (id ^ "+res"),
          fun () ->
            digest ~faults:plan
              (Resilient.instance (Resilient.wrap (build e g)))
              pairs ))
      [ "tz-k2"; "rt-3eps" ]
  in
  catalog @ lazy_ @ resilient

let golden =
  [
    ("full/gnp44", "511ee5253f2e2b396d5c4b12535e4afc");
    ("tz-k2/gnp44", "4beb8d99568cfb4ae6a23646fde41458");
    ("tz-k3/gnp44", "e0a55b804118cd20b59ed8c5e48e0e68");
    ("tz-k4/gnp44", "637cbf8edb594c9ca35f99bab223c5ca");
    ("rt-3eps/gnp44", "6bdb34c30ecfa3841b1fd9e844a06d77");
    ("rt-3eps-ni/gnp44", "bb0be8dd0c09c1b213fa26bf04af5f81");
    ("rt-2eps1/gnp44", "6ca68156c86d0f2f2107d085665c151b");
    ("rt-5eps/gnp44", "e891a3dd8ec51f452a83d6fb396aca31");
    ("rt-ptr-minus-l3/gnp44", "81f264a6b4200425727f53429143bdbd");
    ("rt-ptr-minus-l2/gnp44", "b6ba648fc4ab4d1b09c972b80de44640");
    ("rt-ptr-plus-l2/gnp44", "6a64bfcc33a514edbfc9cc9df8d78dbe");
    ("rt-4km7-k3/gnp44", "6340214c023a3a04a0578b249ea7efd6");
    ("rt-4km7-k4/gnp44", "651f166a3f3a4ae6c4d2f2b42a7ca84b");
    ("rt-5eps-lazy/gnp44", "cacbf67216a4b29b449315ed595b7927");
    ("rt-4km7-k3-lazy/gnp44", "85dfe5cc9d0c47ada10643d8263fe1c7");
    ("tz-k2+res/gnp44", "7d54a3a3378b665b4fe12c2ff44de9f6");
    ("rt-3eps+res/gnp44", "e14c04fda6b9bd46654325033cc9e986");
    ("full/glp120", "5db2f92244589efe6cf1ab4688f92164");
    ("tz-k2/glp120", "e72da9d2403a24cc916b342f70a7eb35");
    ("tz-k3/glp120", "c19d4773dab75adbf1c7cea2ae6586a5");
    ("tz-k4/glp120", "69e074f91d97c371b76654e28b2684b1");
    ("rt-3eps/glp120", "bfce5d8d528fefd10dafdfa759114aaa");
    ("rt-3eps-ni/glp120", "4457ebcc18433c7f49261b12f545d480");
    ("rt-2eps1/glp120", "b58b1cb726e08d8cd84b9fa96a95107c");
    ("rt-5eps/glp120", "5aff5e65d393cb5c6bdc10f4140465a7");
    ("rt-ptr-minus-l3/glp120", "09aeb2375d54c5884cf1fdb209a9bf5e");
    ("rt-ptr-minus-l2/glp120", "7fd0621259f9a0b695838ab80f157b86");
    ("rt-ptr-plus-l2/glp120", "3cf6ab1393114b0da3ff82160524530f");
    ("rt-4km7-k3/glp120", "03362fffe4b2be202887ff1928229f58");
    ("rt-4km7-k4/glp120", "ef53e9ff7f1cad6fe82dad78cb412273");
    ("rt-5eps-lazy/glp120", "25b242550c0c42bb4e3077fe1bedb4e9");
    ("rt-4km7-k3-lazy/glp120", "b4be22bca98046480edf28c9fe20bccb");
    ("tz-k2+res/glp120", "35d43d73fad09ae93a1f582d3fd00252");
    ("rt-3eps+res/glp120", "ad0739a66ebf3b468f1484034b2fad55");
    ("full/wgnp80", "5ea33b48360beae44af6f66c352f1f24");
    ("tz-k2/wgnp80", "405b42fe7be8513144d78b0b11b12d67");
    ("tz-k3/wgnp80", "90b299639fb6165d7c1e518f8cd28cf5");
    ("tz-k4/wgnp80", "c7632059c6229eccafb91108aed5a84f");
    ("rt-3eps/wgnp80", "3515f43cad60c1f42cff2f24408ef0b9");
    ("rt-3eps-ni/wgnp80", "401a566320c56f6ea3ebcb8583dbfce3");
    ("rt-5eps/wgnp80", "531c69b9da9af0e885946a4fc0dea878");
    ("rt-4km7-k3/wgnp80", "e18e94c56448200c3324511560a50d9e");
    ("rt-4km7-k4/wgnp80", "a3898e7a36a50e32f6cd2755df08d450");
    ("rt-5eps-lazy/wgnp80", "35e4c9526bb23d56a485878985ba349b");
    ("rt-4km7-k3-lazy/wgnp80", "153e7d63e105b2d0243625f085f70127");
    ("tz-k2+res/wgnp80", "ff4619bfc0b06160f6a59e97b07323cf");
    ("rt-3eps+res/wgnp80", "448664bc6878318d371a4c28f69c0856");
  ]

let test_golden graph () =
  List.iter
    (fun (k, f) ->
      let d = f () in
      match List.assoc_opt k golden with
      | None -> Alcotest.failf "no golden digest for %s (computed %s)" k d
      | Some want -> check Alcotest.string k want d)
    (cases graph)

let suite =
  List.map
    (fun ((gname, _, _) as graph) ->
      case ("golden route digests on " ^ gname) (test_golden graph))
    graphs
