open Util
open Cr_graph
open Cr_routing
open Cr_core

(* ------------------------------------------------------------------ *)
(* The workload side: Zipf popularity and the arrival schedule          *)
(* ------------------------------------------------------------------ *)

let test_pairs_valid () =
  let n = 40 in
  let t = Traffic.create ~zipf:1.2 ~seed:3 ~n () in
  for k = 0 to 2_000 do
    let u, v = Traffic.pair t k in
    checkb "src in range" true (u >= 0 && u < n);
    checkb "dst in range" true (v >= 0 && v < n);
    checkb "distinct endpoints" true (u <> v)
  done

(* Heavy skew on a tiny population: the hashed retry loop must exhaust and
   fall back to the deterministic rank probe without ever emitting u = v. *)
let test_pairs_valid_degenerate () =
  let t = Traffic.create ~zipf:4.0 ~seed:5 ~n:2 () in
  for k = 0 to 2_000 do
    let u, v = Traffic.pair t k in
    checkb "distinct under degenerate skew" true (u <> v && u < 2 && v < 2)
  done

let test_determinism () =
  let mk seed = Traffic.create ~zipf:0.9 ~rate:750.0 ~seed ~n:50 () in
  let t1 = mk 11 and t2 = mk 11 and t3 = mk 12 in
  checkb "same seed, same pairs" true
    (Traffic.pairs t1 ~count:500 = Traffic.pairs t2 ~count:500);
  checkb "same seed, same schedule" true
    (List.init 500 (Traffic.arrival t1) = List.init 500 (Traffic.arrival t2));
  checkb "different seed, different pairs" true
    (Traffic.pairs t1 ~count:500 <> Traffic.pairs t3 ~count:500)

let test_arrival_schedule () =
  let rate = 500.0 in
  let t = Traffic.create ~rate ~seed:7 ~n:30 () in
  let prev = ref neg_infinity in
  for k = 0 to 999 do
    let a = Traffic.arrival t k in
    checkb "arrivals nondecreasing" true (a >= !prev);
    checkb "arrival within its slot" true
      (a >= float_of_int k /. rate && a < float_of_int (k + 1) /. rate);
    prev := a
  done;
  let unpaced = Traffic.create ~seed:7 ~n:30 () in
  checkf "unpaced arrivals are immediate" 0.0 (Traffic.arrival unpaced 123)

(* Every pair and arrival of a few specs over a fixed grid, folded into
   one digest (arrivals by their exact bits): a change to how a query is
   hashed must leave every query as it was. *)
let schedule_digest = "871048f5e35c5583f2a9535de0481ac0"

let test_schedule_pinned () =
  let b = Buffer.create 65536 in
  List.iter
    (fun seed ->
      List.iter
        (fun (n, zipf, rate) ->
          let t = Traffic.create ~zipf ~rate ~seed ~n () in
          List.iter
            (fun k ->
              let u, v = Traffic.pair t k in
              Buffer.add_string b
                (Printf.sprintf "%d,%d,%Ld;" u v
                   (Int64.bits_of_float (Traffic.arrival t k))))
            (List.init 300 Fun.id @ [ 4095; 1_000_003; 123_456_789 ]))
        [
          (2, 0.0, infinity);
          (2, 1.0, 250.0);
          (50, 0.0, 750.0);
          (50, 1.0, infinity);
          (1000, 0.0, infinity);
          (1000, 1.0, 1e6);
        ])
    [ 0; 1; 17; 123_456 ];
  check Alcotest.string "schedule digest" schedule_digest
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* Rank-frequency check: with exponent 1.0 the log-log plot of draw count
   against popularity rank is a line of slope -1. The tolerance is loose —
   50k draws over the 32 best-populated ranks — but rules out uniform
   (slope 0) and pathological (slope < -2) samplers alike. *)
let test_zipf_slope () =
  let n = 64 in
  let t = Traffic.create ~zipf:1.0 ~seed:17 ~n () in
  let counts = Array.make n 0 in
  for k = 0 to 49_999 do
    let u, _ = Traffic.pair t k in
    let r = Traffic.rank_of_source t u in
    counts.(r) <- counts.(r) + 1
  done;
  let pts = ref [] in
  for r = 0 to 31 do
    if counts.(r) > 0 then
      pts :=
        (log (float_of_int (r + 1)), log (float_of_int counts.(r))) :: !pts
  done;
  let pts = !pts in
  let m = float_of_int (List.length pts) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 pts in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 pts in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 pts in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 pts in
  let slope = ((m *. sxy) -. (sx *. sy)) /. ((m *. sxx) -. (sx *. sx)) in
  checkb
    (Printf.sprintf "zipf slope %.3f in [-1.35, -0.65]" slope)
    true
    (slope > -1.35 && slope < -0.65)

let test_uniform_when_zipf_zero () =
  let n = 32 in
  let t = Traffic.create ~zipf:0.0 ~seed:19 ~n () in
  let counts = Array.make n 0 in
  let draws = 32_000 in
  for k = 0 to draws - 1 do
    let u, _ = Traffic.pair t k in
    counts.(u) <- counts.(u) + 1
  done;
  let avg = float_of_int draws /. float_of_int n in
  Array.iter
    (fun c ->
      checkb "uniform sources within 2x of mean" true
        (float_of_int c > avg /. 2.0 && float_of_int c < 2.0 *. avg))
    counts

(* ------------------------------------------------------------------ *)
(* The serve loop: identity with the batch engine, churn, determinism   *)
(* ------------------------------------------------------------------ *)

let serve_fixture () =
  let g = Generators.connect ~seed:9 (Generators.gnp ~seed:9 60 0.08) in
  let apsp = Apsp.compute g in
  let build id =
    let e = Option.get (Catalog.find id) in
    fst (e.Catalog.build ~seed:23 ~eps:0.5 g)
  in
  (* One baseline, one paper scheme, one resilient wrapper (which ignores
     the simulator knobs) — the loop must not care which serves. *)
  let instances = [ build "tz-k2"; build "rt-3eps"; build "tz-k2+res" ] in
  let plan =
    Fault.compile
      (Fault.spec ~seed:31 ~link_failure_rate:0.05 ())
      g
  in
  let churn =
    [
      { Traffic.at_query = 300; plan = Some plan };
      { Traffic.at_query = 600; plan = None };
    ]
  in
  (g, apsp, instances, churn)

let run_serve ~domains =
  let _, apsp, instances, churn = serve_fixture () in
  let t = Traffic.create ~zipf:0.8 ~seed:5 ~n:60 () in
  let pool = Pool.create ~domains () in
  let report =
    (* chunk 7: many ragged windows per segment, so the chunked
       accumulation itself is what gets exercised. *)
    Traffic.serve ~pool ~churn ~chunk:7 ~pace:false t ~budget:900 ~instances
      ~apsp
  in
  (pool, apsp, report)

let test_serve_matches_batch () =
  let pool, apsp, report = run_serve ~domains:1 in
  checki "all queries routed" 900 report.Traffic.routed;
  let dispatched = ref 0 in
  List.iter
    (fun (s : Traffic.served) ->
      checkb "three segments per instance (two churn events)" true
        (List.length s.Traffic.segments = 3);
      (match
         List.map (fun (sg : Traffic.segment) -> sg.Traffic.plan)
           s.Traffic.segments
       with
      | [ None; Some _; None ] -> ()
      | _ -> Alcotest.fail "segment plans must follow the churn cycle");
      List.iter
        (fun (sg : Traffic.segment) ->
          dispatched := !dispatched + List.length sg.Traffic.pairs;
          let fresh =
            Scheme.evaluate_batch ~pool ?faults:sg.Traffic.plan ~fast:true
              s.Traffic.instance apsp sg.Traffic.pairs
          in
          checkb "segment eval == one evaluate_batch over its pairs" true
            (fresh = sg.Traffic.eval))
        s.Traffic.segments)
    report.Traffic.served;
  checki "every query lands in exactly one segment" 900 !dispatched;
  (* Verdict counters cover exactly the routable pairs of every eval. *)
  let routed_pairs =
    List.fold_left
      (fun a (s : Traffic.served) ->
        List.fold_left
          (fun a (sg : Traffic.segment) ->
            a
            + Array.length sg.Traffic.eval.Scheme.samples
            + sg.Traffic.eval.Scheme.failures)
          a s.Traffic.segments)
      0 report.Traffic.served
  in
  checki "verdict counters sum to routable pairs" routed_pairs
    (List.fold_left (fun a (_, c) -> a + c) 0 report.Traffic.verdicts)

let test_serve_domain_independent () =
  let _, _, r1 = run_serve ~domains:1 in
  let _, _, r4 = run_serve ~domains:4 in
  checki "same routed count" r1.Traffic.routed r4.Traffic.routed;
  List.iter2
    (fun (a : Traffic.served) (b : Traffic.served) ->
      checki "same segment count" (List.length a.Traffic.segments)
        (List.length b.Traffic.segments);
      List.iter2
        (fun (sa : Traffic.segment) (sb : Traffic.segment) ->
          checkb "same pair stream" true (sa.Traffic.pairs = sb.Traffic.pairs);
          checkb "bit-identical evals across domain counts" true
            (sa.Traffic.eval = sb.Traffic.eval))
        a.Traffic.segments b.Traffic.segments)
    r1.Traffic.served r4.Traffic.served

let test_churn_cycle () =
  let g = Generators.torus 5 5 in
  let churn =
    Traffic.churn_cycle g ~seed:3 ~every:100 ~budget:450 ~link_rate:0.05
      ~vertex_rate:0.0
  in
  checki "events strictly inside the budget" 4 (List.length churn);
  List.iteri
    (fun i (ev : Traffic.churn_event) ->
      checki "event position" ((i + 1) * 100) ev.Traffic.at_query;
      checkb "alternating fail/heal" true
        (if i mod 2 = 0 then ev.Traffic.plan <> None else ev.Traffic.plan = None))
    churn;
  checkb "no churn when disabled" true
    (Traffic.churn_cycle g ~seed:3 ~every:0 ~budget:450 ~link_rate:0.05
       ~vertex_rate:0.0
    = [])

let suite =
  [
    case "query pairs are valid" test_pairs_valid;
    case "degenerate skew still yields distinct endpoints"
      test_pairs_valid_degenerate;
    case "seed determines pairs and schedule" test_determinism;
    case "arrival schedule is paced and monotone" test_arrival_schedule;
    case "zipf rank-frequency slope" test_zipf_slope;
    case "zipf 0 is uniform" test_uniform_when_zipf_zero;
    case "serve segments match evaluate_batch bit for bit"
      test_serve_matches_batch;
    case "serve is domain-count independent" test_serve_domain_independent;
    case "churn_cycle alternates fail and heal" test_churn_cycle;
    case "pairs and arrivals pinned" test_schedule_pinned;
  ]
