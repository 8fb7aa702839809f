(* Fault injection and the resilience wrapper.

   The first half pins every verdict constructor to a hand-built situation;
   the second half checks the two global contracts: an empty fault plan is
   bit-invisible (zero-fault identity, over the whole catalog on random
   graphs), and the resilience wrapper never delivers less than the scheme
   it wraps. *)
open Util
open Cr_graph
open Cr_routing
open Cr_core

(* Forward along the path graph toward the header vertex. *)
let path_step g ~at dst =
  if at = dst then Port_model.Deliver
  else
    match Graph.port_to g at (at + (if at < dst then 1 else -1)) with
    | Some p -> Port_model.Forward (p, dst)
    | None -> invalid_arg "path_step: off the path"

(* --- plan construction ------------------------------------------------ *)

let test_plan_compile () =
  let g = Generators.grid 6 6 in
  let s = Fault.spec ~seed:3 ~link_failure_rate:0.1 ~vertex_failure_rate:0.05 () in
  let p = Fault.compile s g in
  checki "failed links = round(rate*m)"
    (int_of_float (Float.round (0.1 *. float_of_int (Graph.m g))))
    (List.length (Fault.failed_links p));
  checki "failed vertices = round(rate*n)"
    (int_of_float (Float.round (0.05 *. float_of_int (Graph.n g))))
    (List.length (Fault.failed_vertices p));
  (* Same seed, same graph: the same elements fail. *)
  let p' = Fault.compile s g in
  checkb "deterministic" true
    (Fault.failed_links p = Fault.failed_links p'
    && Fault.failed_vertices p = Fault.failed_vertices p');
  let q = Fault.compile { s with Fault.seed = 4 } g in
  checkb "seed-sensitive" true
    (Fault.failed_links p <> Fault.failed_links q
    || Fault.failed_vertices p <> Fault.failed_vertices q);
  List.iter
    (fun (u, v) -> checkb "link_down agrees" true (Fault.link_down p u v))
    (Fault.failed_links p);
  checkb "empty is empty" true (Fault.is_empty (Fault.empty g));
  checkb "compiled plan not empty" false (Fault.is_empty p)

let test_plan_of_failures () =
  let g = Generators.path 4 in
  let p = Fault.of_failures g ~links:[ (2, 1) ] ~vertices:[ 3 ] in
  checkb "link down both ways" true
    (Fault.link_down p 1 2 && Fault.link_down p 2 1);
  checkb "other link up" false (Fault.link_down p 0 1);
  checkb "vertex down" true (Fault.vertex_down p 3);
  (* Rejection messages carry the 1-based list position of the offending
     entry, so a bad element in a long generated failure list is findable. *)
  checkb "rejects a non-edge, naming its position" true
    (try
       ignore (Fault.of_failures g ~links:[ (0, 1); (0, 3) ] ~vertices:[]);
       false
     with Invalid_argument m ->
       m = "Fault.of_failures: links[2] = (0, 3) is not an edge");
  checkb "rejects a bad vertex, naming its position" true
    (try
       ignore (Fault.of_failures g ~links:[] ~vertices:[ 0; 2; 9 ]);
       false
     with Invalid_argument m ->
       m = "Fault.of_failures: vertices[3] = 9 out of range")

let test_decide_pure () =
  let g = Generators.path 3 in
  let s = Fault.spec ~seed:11 ~drop_prob:0.5 ~corrupt_prob:0.2 () in
  let p = Fault.compile s g in
  let decide p = Fault.decide p ~at:1 ~port:0 ~index:4 in
  checkb "replayable" true (decide p = decide p);
  let zero = Fault.empty g in
  for i = 0 to 20 do
    checkb "zero rates always pass" true
      (Fault.decide zero ~at:(i mod 3) ~port:(i mod 2) ~index:i = Fault.Pass)
  done

(* Every per-hop decision and link query of a few plans over a fixed
   grid, folded into one digest: a change to how a plan stores its links
   or hashes a hop must leave every answer as it was. *)
let decisions_digest = "5d2f87df6f851f906d918f9bb3a33b69"

let test_decisions_pinned () =
  let g = Generators.grid 8 8 in
  let n = Graph.n g in
  let plans =
    [
      Fault.empty g;
      Fault.compile
        (Fault.spec ~seed:5 ~link_failure_rate:0.15 ~vertex_failure_rate:0.05
           ~drop_prob:0.1 ~corrupt_prob:0.2 ())
        g;
      Fault.compile (Fault.spec ~seed:9 ~drop_prob:1e-9 ~corrupt_prob:0.5 ()) g;
      Fault.of_failures
        ~spec:(Fault.spec ~seed:2 ~drop_prob:0.3 ())
        g ~links:[ (9, 1); (10, 18); (63, 62) ] ~vertices:[ 4 ];
    ]
  in
  let b = Buffer.create 65536 in
  List.iter
    (fun p ->
      List.iter
        (fun (u, v) -> Buffer.add_string b (Printf.sprintf "%d-%d;" u v))
        (Fault.failed_links p);
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          Buffer.add_char b (if Fault.link_down p u v then '1' else '0')
        done
      done;
      List.iter
        (fun at ->
          for port = 0 to 3 do
            List.iter
              (fun index ->
                Buffer.add_char b
                  (match Fault.decide p ~at ~port ~index with
                  | Fault.Pass -> 'P'
                  | Fault.Drop -> 'D'
                  | Fault.Corrupt -> 'C'))
              [ 0; 1; 2; 3; 7; 100; 4095; 1_000_000 ]
          done)
        (List.init n Fun.id @ [ 1_000_003; 123_456_789 ]))
    plans;
  check Alcotest.string "decision digest" decisions_digest
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* --- one test per verdict constructor ---------------------------------- *)

let test_verdict_dropped () =
  let g = Generators.path 3 in
  let p =
    Fault.of_failures ~spec:(Fault.spec ~drop_prob:1.0 ()) g ~links:[]
      ~vertices:[]
  in
  let o =
    Port_model.run g ~src:0 ~header:2 ~faults:p
      ~step:(path_step g) ~header_words:(fun _ -> 1) ()
  in
  checkb "dropped at the source" true
    (o.Port_model.verdict = Port_model.Dropped_at 0);
  checki "no hop completed" 0 o.Port_model.hops;
  checki "message still at source" 0 o.Port_model.final

let test_verdict_link_down () =
  let g = Generators.path 3 in
  let p = Fault.of_failures g ~links:[ (1, 2) ] ~vertices:[] in
  let o =
    Port_model.run g ~src:0 ~header:2 ~faults:p
      ~step:(path_step g) ~header_words:(fun _ -> 1) ()
  in
  (match o.Port_model.verdict with
  | Port_model.Link_down_at (v, _) -> checki "stuck before the cut" 1 v
  | w -> Alcotest.failf "expected link-down, got %s" (Port_model.verdict_name w));
  checki "message stays at the sender" 1 o.Port_model.final;
  checki "one good hop first" 1 o.Port_model.hops

let test_verdict_dead_end_crash () =
  let g = Generators.path 3 in
  (* Crashed relay: the sender sees the dead neighbor locally. *)
  let p = Fault.of_failures g ~links:[] ~vertices:[ 1 ] in
  let o =
    Port_model.run g ~src:0 ~header:2 ~faults:p
      ~step:(path_step g) ~header_words:(fun _ -> 1) ()
  in
  checkb "dead end names the crashed vertex" true
    (o.Port_model.verdict = Port_model.Dead_end_at 1);
  checki "message never leaves the source" 0 o.Port_model.final;
  (* Crashed source: nothing to do at all. *)
  let o2 =
    Port_model.run g ~src:1 ~header:2 ~faults:p
      ~step:(path_step g) ~header_words:(fun _ -> 1) ()
  in
  checkb "crashed source" true
    (o2.Port_model.verdict = Port_model.Dead_end_at 1);
  checki "zero hops" 0 o2.Port_model.hops

let test_verdict_dead_end_raise () =
  let g = Generators.path 3 in
  (* A step function that raises is a scheme bug: surfaced as a verdict,
     never as an exception (the no-exception contract of run). *)
  let o =
    Port_model.run g ~src:0 ~header:()
      ~step:(fun ~at:_ () -> failwith "table miss")
      ~header_words:(fun () -> 0) ()
  in
  checkb "raise becomes dead-end" true
    (o.Port_model.verdict = Port_model.Dead_end_at 0)

(* [header_words] runs under the same guard as the step function: a header
   the holding vertex cannot size ends the run there. *)
let list_step g ~at h =
  match path_step g ~at (List.hd h) with
  | Port_model.Deliver -> Port_model.Deliver
  | Port_model.Forward (p, _) -> Port_model.Forward (p, h)

let test_verdict_dead_end_unsizeable_source () =
  let g = Generators.path 3 in
  let o =
    Port_model.run g ~src:0 ~header:[] ~step:(list_step g)
      ~header_words:List.hd ()
  in
  checkb "unsizeable initial header" true
    (o.Port_model.verdict = Port_model.Dead_end_at 0);
  checki "no hop" 0 o.Port_model.hops

let test_verdict_dead_end_unsizeable_corrupt () =
  let g = Generators.path 3 in
  let p =
    Fault.of_failures ~spec:(Fault.spec ~corrupt_prob:1.0 ()) g ~links:[]
      ~vertices:[]
  in
  let o =
    Port_model.run g ~src:0 ~header:[ 2 ] ~step:(list_step g)
      ~header_words:List.hd ~faults:p ~corrupt:(fun _ -> []) ()
  in
  checkb "corrupted to an unsizeable header" true
    (o.Port_model.verdict = Port_model.Dead_end_at 1);
  checki "one hop crossed" 1 o.Port_model.hops;
  checki "peak from the sized header" 2 o.Port_model.header_words_peak

let test_verdict_corrupt () =
  let g = Generators.path 5 in
  let p =
    Fault.of_failures ~spec:(Fault.spec ~corrupt_prob:1.0 ()) g ~links:[]
      ~vertices:[]
  in
  (* Without a corruption hook the garbled message counts as lost. *)
  let o =
    Port_model.run g ~src:0 ~header:4 ~faults:p
      ~step:(path_step g) ~header_words:(fun _ -> 1) ()
  in
  checkb "no hook: corrupt = drop" true
    (o.Port_model.verdict = Port_model.Dropped_at 0);
  (* With a hook the corrupted header keeps traveling — here every hop
     rewrites the destination to 0, so the message walks back and in. *)
  let o2 =
    Port_model.run g ~src:0 ~header:4 ~faults:p
      ~step:(path_step g) ~header_words:(fun _ -> 1)
      ~corrupt:(fun _ -> 0) ()
  in
  checkb "hook applied: message goes astray but lives" true
    (Port_model.delivered o2 && o2.Port_model.final = 0)

let test_on_bounce_recovers () =
  (* Triangle: 0-1 fails; the bounce hook reroutes 0's message via 2. *)
  let g = Generators.complete 3 in
  let p = Fault.of_failures g ~links:[ (0, 1) ] ~vertices:[] in
  let to_port u v = Option.get (Graph.port_to g u v) in
  let step ~at dst =
    if at = dst then Port_model.Deliver
    else Port_model.Forward (to_port at dst, dst)
  in
  let no_bounce =
    Port_model.run g ~src:0 ~header:1 ~faults:p ~step
      ~header_words:(fun _ -> 1) ()
  in
  checkb "without a hook the cut is fatal" true
    (no_bounce.Port_model.verdict = Port_model.Link_down_at (0, to_port 0 1));
  let bounced =
    Port_model.run g ~src:0 ~header:1 ~faults:p ~step
      ~header_words:(fun _ -> 1)
      ~on_bounce:(fun ~at ~dead dst ->
        (* Next-best local option: any live port not yet tried. *)
        let deg = Graph.degree g at in
        let rec pick q =
          if q >= deg then None
          else if List.mem q dead then pick (q + 1)
          else Some (Port_model.Forward (q, dst))
        in
        pick 0)
      ()
  in
  checkb "bounce hook recovers" true (Port_model.delivered_to bounced 1);
  checkb "detour path 0-2-1" true (bounced.Port_model.path = [ 0; 2; 1 ])

let test_hooks_in_both_knob_settings () =
  (* The simulator knobs change nothing but the path when the bounce and
     corruption hooks fire: cut links, a crashed vertex and a dropping and
     corrupting plan on a 4x4 grid, every pair, both knob settings, two
     headers. The first counts its hops, so no (vertex, header) state
     recurs. The second is the target alone, with ties broken toward the
     larger neighbour id: the corruption hook rewrites it to 5 at
     hop-dependent points, so states recur on routes that do not cycle
     (0 -> 6 reaches 5 twice with target 5, and is delivered there). A
     repeat proves nothing under such a hook, so loop detection, the one
     knob that may end a run, must stay off for it. *)
  let g = Generators.grid 4 4 in
  let n = Graph.n g in
  let plan =
    Fault.of_failures
      ~spec:(Fault.spec ~seed:7 ~drop_prob:0.05 ~corrupt_prob:0.2 ())
      g
      ~links:[ (0, 1); (5, 6); (9, 13) ]
      ~vertices:[ 10 ]
  in
  (* Greedy toward the target by BFS distance, skipping dead ports; ties
     go to the highest port, or with [larger] to the larger neighbour. *)
  let dist = Array.init n (fun v -> (Bfs.run g v).Bfs.dist) in
  let greedy ~counting ~larger ~at ~dead (dst, k) =
    if at = dst then Some Port_model.Deliver
    else begin
      let best = ref None in
      for p = Graph.degree g at - 1 downto 0 do
        if not (List.mem p dead) then begin
          let v = Graph.endpoint g at p in
          let d = dist.(dst).(v) in
          match !best with
          | Some (_, d', v') when d' < d || (d' = d && not (larger && v > v'))
            -> ()
          | _ -> best := Some (p, d, v)
        end
      done;
      let k = if counting then k + 1 else k in
      Option.map (fun (p, _, _) -> Port_model.Forward (p, (dst, k))) !best
    end
  in
  List.iter
    (fun (what, counting, larger) ->
      let greedy = greedy ~counting ~larger in
      let bounces = ref 0 and corruptions = ref 0 in
      let route ~knobs ~src ~dst =
        Port_model.run g ~src ~header:(dst, 0)
          ~step:(fun ~at h -> Option.get (greedy ~at ~dead:[] h))
          ~header_words:(fun _ -> 2) ~faults:plan
          ~on_bounce:(fun ~at ~dead h ->
            if knobs then incr bounces;
            greedy ~at ~dead h)
          ~corrupt:(fun (_, k) ->
            if knobs then incr corruptions;
            (5, k))
          ~max_hops:(4 * n) ~record_path:knobs ~detect_loops:knobs ()
      in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          let on = route ~knobs:true ~src ~dst in
          let off = route ~knobs:false ~src ~dst in
          if { on with Port_model.path = [] } <> off then
            Alcotest.failf "%s: knobs change the outcome of %d -> %d: %s vs %s"
              what src dst
              (Port_model.verdict_name on.Port_model.verdict)
              (Port_model.verdict_name off.Port_model.verdict)
        done
      done;
      checkb (what ^ ": the bounce hook fired") true (!bounces > 0);
      checkb (what ^ ": the corruption hook fired") true (!corruptions > 0))
    [ ("hop-counting header", true, false); ("target-only header", false, true) ]

(* --- the allocation contract ------------------------------------------- *)

(* A 2001-vertex path and a step that forwards right with decisions built
   up front, so every word a route allocates is the simulator's own: with
   both knobs off a route of 1000 hops allocates what one of 10 does, also
   under an empty fault plan and under one whose drop and corrupt rates
   are nonzero (but too small to fire on this path), and path recording
   costs one cons (3 words) per hop. *)
let test_allocation_contract () =
  let n = 2001 in
  let g = Generators.path n in
  let right =
    Array.init n (fun at ->
        Port_model.Forward
          (Option.value (Graph.port_to g at (at + 1)) ~default:0, ()))
  in
  let target = ref 0 in
  let step ~at () = if at = !target then Port_model.Deliver else right.(at) in
  let header_words () = 1 in
  let words ?faults ~telemetry ~record_path hops =
    let was = Telemetry.enabled () in
    Telemetry.set_enabled telemetry;
    Fun.protect ~finally:(fun () -> Telemetry.set_enabled was) @@ fun () ->
    target := hops;
    let route () =
      Port_model.run g ~src:0 ~header:() ~step ~header_words ?faults
        ~record_path ~detect_loops:false ()
    in
    ignore (route ());
    let w0 = Gc.minor_words () in
    let o = route () in
    let w = Gc.minor_words () -. w0 in
    checkb "delivered" true (Port_model.delivered_to o hops);
    checki "hops" hops o.Port_model.hops;
    Float.to_int w
  in
  if Sys.backend_type = Sys.Native then begin
    List.iter
      (fun telemetry ->
        checki
          (Printf.sprintf "knobs off, telemetry %b: 1000 hops cost 10 hops' words"
             telemetry)
          (words ~telemetry ~record_path:false 10)
          (words ~telemetry ~record_path:false 1000))
      [ false; true ];
    List.iter
      (fun (name, plan) ->
        checki
          (Printf.sprintf "knobs off, %s: 1000 hops cost 10 hops' words" name)
          (words ~faults:plan ~telemetry:false ~record_path:false 10)
          (words ~faults:plan ~telemetry:false ~record_path:false 1000))
      [
        ("empty plan", Fault.empty g);
        ( "drop and corrupt rates",
          Fault.compile
            (Fault.spec ~seed:3 ~drop_prob:1e-9 ~corrupt_prob:1e-9 ())
            g );
      ];
    checki "path recording: 3 words per extra hop" (3 * 990)
      (words ~telemetry:false ~record_path:true 1000
      - words ~telemetry:false ~record_path:true 10)
  end

(* --- zero-fault identity across the catalog ---------------------------- *)

(* Outcomes are plain data: polymorphic equality compares verdict, final
   vertex, full path, length, hops and peak header words at once. *)
let same_outcome a b = compare a b = 0

let zero_fault_identity =
  qcheck ~count:12 "empty plan is bit-invisible (whole catalog)"
    QCheck2.Gen.(
      let* n = int_range 1 24 in
      let* seed = int_range 0 9999 in
      let* wseed = int_range 0 9999 in
      return (n, seed, wseed))
    (fun (n, seed, wseed) ->
      let base =
        Generators.connect ~seed
          (Generators.gnp ~seed n (Float.min 1.0 (4.0 /. float_of_int n)))
      in
      let gw =
        Generators.with_random_weights ~seed:wseed ~lo:0.5 ~hi:4.0 base
      in
      List.for_all
        (fun (e : Catalog.entry) ->
          let g = if e.Catalog.weighted_ok then gw else base in
          match e.Catalog.build ~seed:5 ~eps:0.5 g with
          | exception Invalid_argument _ ->
            true (* some schemes reject tiny graphs; that is not this bug *)
          | inst, _ ->
            let empty = Fault.empty g in
            List.for_all
              (fun (src, dst) ->
                let plain = Scheme.route inst ~src ~dst in
                let under = Scheme.route inst ~faults:empty ~src ~dst in
                same_outcome plain under)
              ((0, n - 1) :: (n - 1, 0)
              :: (if n > 2 then [ (1, n / 2); (n / 2, 1) ] else [])))
        Catalog.all)

let test_zero_fault_identity_n1 () =
  let g = Generators.path 1 in
  let inst, _ =
    (Option.get (Catalog.find "full")).Catalog.build ~seed:1 ~eps:0.5 g
  in
  let plain = Scheme.route inst ~src:0 ~dst:0 in
  let under = Scheme.route inst ~faults:(Fault.empty g) ~src:0 ~dst:0 in
  checkb "n=1 self-route identical" true (same_outcome plain under);
  checkb "n=1 delivered" true (Port_model.delivered_to plain 0)

(* --- the resilience wrapper -------------------------------------------- *)

let test_resilient_transparent () =
  let g = Generators.connect ~seed:2 (Generators.gnp ~seed:2 30 0.15) in
  let inst, _ =
    (Option.get (Catalog.find "tz-k2")).Catalog.build ~seed:5 ~eps:0.5 g
  in
  let res = Resilient.instance (Resilient.wrap inst) in
  checkb "name tagged" true (res.Scheme.name = inst.Scheme.name ^ "+res");
  List.iter
    (fun (src, dst) ->
      checkb "no faults: wrapper is invisible" true
        (same_outcome (Scheme.route inst ~src ~dst) (Scheme.route res ~src ~dst)))
    [ (0, 29); (29, 0); (7, 13); (4, 4) ]

let test_resilient_survives_cut () =
  (* A cycle survives any single link failure; shortest-path tables do not
     know that. The wrapper must deliver every pair anyway. *)
  let g = Generators.cycle 8 in
  let inst, _ =
    (Option.get (Catalog.find "full")).Catalog.build ~seed:5 ~eps:0.5 g
  in
  let res = Resilient.wrap inst in
  let plan = Fault.of_failures g ~links:[ (2, 3) ] ~vertices:[] in
  let bare_failures = ref 0 in
  for src = 0 to 7 do
    for dst = 0 to 7 do
      if src <> dst then begin
        let bare = Scheme.route inst ~faults:plan ~src ~dst in
        if not (Port_model.delivered_to bare dst) then incr bare_failures;
        let o = Resilient.route ~faults:plan res ~src ~dst in
        checkb "wrapper delivers around the cut" true
          (Port_model.delivered_to o dst);
        (* The merged outcome is a real walk: consecutive path vertices are
           adjacent, and length is the sum of the traversed weights. *)
        let rec walk len = function
          | u :: (v :: _ as rest) -> (
            match Graph.port_to g u v with
            | Some p -> walk (len +. Graph.port_weight g u p) rest
            | None -> Alcotest.failf "non-edge %d-%d in merged path" u v)
          | _ -> len
        in
        checkf "merged length = walked length" o.Port_model.length
          (walk 0.0 o.Port_model.path)
      end
    done
  done;
  checkb "the cut actually hurt the bare scheme" true (!bare_failures > 0)

let test_resilient_disconnection_is_honest () =
  (* Cutting the only edge of a path strands the far side: nobody can
     deliver, and the wrapper must say so rather than loop. *)
  let g = Generators.path 4 in
  let inst, _ =
    (Option.get (Catalog.find "full")).Catalog.build ~seed:5 ~eps:0.5 g
  in
  let res = Resilient.wrap inst in
  let plan = Fault.of_failures g ~links:[ (1, 2) ] ~vertices:[] in
  let o = Resilient.route ~faults:plan res ~src:0 ~dst:3 in
  checkb "not delivered" false (Port_model.delivered o);
  checkb "stopped on the near side" true (o.Port_model.final <= 1)

let test_resilient_dominates_eval () =
  let g = Generators.connect ~seed:9 (Generators.gnp ~seed:9 40 0.12) in
  let inst, _ =
    (Option.get (Catalog.find "tz-k2")).Catalog.build ~seed:5 ~eps:0.5 g
  in
  let res = Resilient.instance (Resilient.wrap inst) in
  let apsp = Apsp.compute g in
  let pairs = Scheme.sample_pairs ~seed:3 ~n:40 ~count:200 in
  let plan =
    Fault.compile (Fault.spec ~seed:17 ~link_failure_rate:0.05 ()) g
  in
  let evb = Scheme.evaluate_under_faults ~faults:plan inst apsp pairs in
  let evr = Scheme.evaluate_under_faults ~faults:plan res apsp pairs in
  checkb "faults hurt the bare scheme" true (evb.Scheme.failures > 0);
  checkb "wrapper delivers strictly more" true
    (Scheme.delivery_rate evr > Scheme.delivery_rate evb);
  (* "+res" ids resolve in the catalog too. *)
  checkb "catalog resolves +res ids" true
    (match Catalog.find "tz-k2+res" with
    | Some e -> e.Catalog.id = "tz-k2+res"
    | None -> false)

let suite =
  [
    case "plan compile is deterministic" test_plan_compile;
    case "hand-built plans validate input" test_plan_of_failures;
    case "per-hop decisions are pure" test_decide_pure;
    case "decisions and link queries pinned" test_decisions_pinned;
    case "verdict: dropped" test_verdict_dropped;
    case "verdict: link down" test_verdict_link_down;
    case "verdict: dead end (crash)" test_verdict_dead_end_crash;
    case "verdict: dead end (raise)" test_verdict_dead_end_raise;
    case "verdict: dead end (unsizeable header)"
      test_verdict_dead_end_unsizeable_source;
    case "verdict: dead end (corrupted to an unsizeable header)"
      test_verdict_dead_end_unsizeable_corrupt;
    case "verdict: corruption" test_verdict_corrupt;
    case "bounce hook recovers a cut" test_on_bounce_recovers;
    case "hooks fire alike in both knob settings"
      test_hooks_in_both_knob_settings;
    case "allocation contract of the hop loop" test_allocation_contract;
    zero_fault_identity;
    case "zero-fault identity at n=1" test_zero_fault_identity_n1;
    case "resilient wrapper is transparent" test_resilient_transparent;
    case "resilient wrapper survives a cut" test_resilient_survives_cut;
    case "resilient wrapper honest on disconnection"
      test_resilient_disconnection_is_honest;
    case "resilient delivery dominates" test_resilient_dominates_eval;
  ]
