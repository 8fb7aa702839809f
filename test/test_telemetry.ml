(* The telemetry layer.

   The contract under test: observation never changes behavior. Routing
   with telemetry on — counters, histograms, even full per-hop tracing —
   must produce bit-identical outcomes to routing with it off, with the
   simulator knobs on and off, with and without faults; the per-domain
   counter shards must merge to exactly the serial totals; and the histogram
   arithmetic (buckets, percentiles, merges) must obey its pins. *)
open Util
open Cr_graph
open Cr_routing
open Cr_core

(* Every test here flips the global switch, and CI runs the whole suite
   once with CR_TRACE=1 — so the prior state is always restored. *)
let with_telemetry b f =
  let was = Telemetry.enabled () in
  Telemetry.set_enabled b;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled was) f

(* ------------------------------------------------------------------ *)
(* Identity: telemetry on vs off                                       *)
(* ------------------------------------------------------------------ *)

let catalog_ids = Catalog.ids ()

let gen_identity =
  QCheck2.Gen.(
    let* g = arb_connected_graph in
    let* sidx = int_range 0 (List.length catalog_ids - 1) in
    let* seed = int_range 0 1000 in
    let* use_fast = bool in
    let* rate = oneofl [ 0.0; 0.15; 0.6 ] in
    let* fs = int_range 0 99 in
    return (g, List.nth catalog_ids sidx, seed, use_fast, rate, fs))

let route_pairs g =
  let n = Graph.n g in
  [ (0, n - 1); (n - 1, 0); (n / 2, n - 1) ]

let test_identity =
  qcheck ~count:60 "telemetry on/off: bit-identical outcomes (both planes)"
    gen_identity
    (fun (g, id, seed, use_fast, rate, fs) ->
      let e = Option.get (Catalog.find id) in
      let inst, _ = e.Catalog.build ~seed ~eps:0.5 g in
      let faults =
        if rate = 0.0 then None
        else
          Some
            (Fault.compile
               (Fault.spec ~seed:fs ~link_failure_rate:rate ())
               g)
      in
      let one ~src ~dst =
        if use_fast then
          Scheme.route_fast ~record_path:false ~detect_loops:false ?faults inst
            ~src ~dst
        else Scheme.route ?faults inst ~src ~dst
      in
      List.for_all
        (fun (src, dst) ->
          let off = with_telemetry false (fun () -> one ~src ~dst) in
          let on =
            with_telemetry true (fun () ->
                Telemetry.reset ();
                one ~src ~dst)
          in
          let traced, _events =
            Telemetry.with_trace (fun () -> one ~src ~dst)
          in
          off = on && off = traced)
        (route_pairs g))

let test_identity_resilient =
  qcheck ~count:30 "telemetry on/off: identical through the +res wrapper"
    QCheck2.Gen.(
      let* g = arb_connected_graph in
      let* seed = int_range 0 1000 in
      let* fs = int_range 0 99 in
      return (g, seed, fs))
    (fun (g, seed, fs) ->
      let e = Option.get (Catalog.find "tz-k2+res") in
      let inst, _ = e.Catalog.build ~seed ~eps:0.5 g in
      let faults =
        Some (Fault.compile (Fault.spec ~seed:fs ~link_failure_rate:0.25 ()) g)
      in
      List.for_all
        (fun (src, dst) ->
          let off =
            with_telemetry false (fun () -> Scheme.route ?faults inst ~src ~dst)
          in
          let on =
            with_telemetry true (fun () ->
                Telemetry.reset ();
                Scheme.route ?faults inst ~src ~dst)
          in
          off = on)
        (route_pairs g))

(* ------------------------------------------------------------------ *)
(* Counter arithmetic                                                  *)
(* ------------------------------------------------------------------ *)

let test_counters_single_route () =
  with_telemetry true @@ fun () ->
  let g = Generators.grid 5 7 in
  let e = Option.get (Catalog.find "tz-k2") in
  let inst, _ = e.Catalog.build ~seed:3 ~eps:0.5 g in
  Telemetry.reset ();
  let o = Scheme.route inst ~src:0 ~dst:(Graph.n g - 1) in
  checkb "delivered" true (Port_model.delivered o);
  let t = Telemetry.totals () in
  checki "routes" 1 t.Telemetry.routes;
  checki "delivered counter" 1 t.Telemetry.delivered;
  checki "hops == outcome hops" o.Port_model.hops t.Telemetry.hops;
  (* A fault-free delivered run makes exactly one table lookup per vertex
     on the path: hops forwards plus the final Deliver decision. *)
  checki "table_lookups == hops + 1" (o.Port_model.hops + 1)
    t.Telemetry.table_lookups;
  checki "no bounces" 0 t.Telemetry.bounces;
  checki "no retries" 0 t.Telemetry.retries

let counters_of run =
  Telemetry.reset ();
  run ();
  Telemetry.totals ()

let test_batch_merge_matches_serial () =
  with_telemetry true @@ fun () ->
  let g = Generators.connect ~seed:9 (Generators.gnp ~seed:9 48 0.1) in
  let e = Option.get (Catalog.find "rt-3eps") in
  let inst, _ = e.Catalog.build ~seed:5 ~eps:0.5 g in
  let apsp = Apsp.compute g in
  let pairs = Scheme.sample_pairs ~seed:17 ~n:(Graph.n g) ~count:300 in
  let serial = counters_of (fun () -> ignore (Scheme.evaluate inst apsp pairs)) in
  List.iter
    (fun domains ->
      let pool = Pool.create ~domains () in
      (* ~fast:false so the batch routes with the knobs the serial sweep
         used; the merged shard totals must then be the serial totals
         exactly, at any domain count. *)
      let batch =
        counters_of (fun () ->
            ignore (Scheme.evaluate_batch ~pool ~fast:false inst apsp pairs))
      in
      checkb
        (Printf.sprintf "batch totals at %d domain(s) == serial" domains)
        true (batch = serial))
    [ 1; 4 ]

let test_fast_plane_hits () =
  with_telemetry true @@ fun () ->
  let g = Generators.grid 6 6 in
  let e = Option.get (Catalog.find "full") in
  let inst, _ = e.Catalog.build ~seed:1 ~eps:0.5 g in
  let apsp = Apsp.compute g in
  let pairs = Scheme.sample_pairs ~seed:2 ~n:(Graph.n g) ~count:100 in
  Telemetry.reset ();
  ignore (Scheme.evaluate_batch ~pool:(Pool.create ~domains:2 ()) inst apsp pairs);
  let t = Telemetry.totals () in
  checki "every routed pair ran with the knobs off" t.Telemetry.routes
    t.Telemetry.fast_plane_hits;
  checki "all pairs routed" (List.length pairs) t.Telemetry.routes

(* ------------------------------------------------------------------ *)
(* Trace events                                                        *)
(* ------------------------------------------------------------------ *)

let test_trace_events () =
  let g = Generators.grid 5 7 in
  let e = Option.get (Catalog.find "tz-k2") in
  let inst, _ = e.Catalog.build ~seed:3 ~eps:0.5 g in
  let was = Telemetry.enabled () in
  let o, events =
    Telemetry.with_trace (fun () -> Scheme.route inst ~src:0 ~dst:34)
  in
  checkb "with_trace restores the enabled flag" true
    (Telemetry.enabled () = was);
  checkb "delivered" true (Port_model.delivered_to o 34);
  let count k =
    List.length
      (List.filter (fun ev -> ev.Telemetry.kind = k) events)
  in
  checki "one Hop event per hop" o.Port_model.hops (count Telemetry.Hop);
  checki "one Deliver event" 1 (count Telemetry.Deliver);
  (match List.rev events with
  | last :: _ ->
    checkb "last event is End delivered" true
      (last.Telemetry.kind = Telemetry.End "delivered")
  | [] -> Alcotest.fail "no events recorded");
  checkb "outside with_trace nothing records" true (not (Telemetry.tracing ()))

(* ------------------------------------------------------------------ *)
(* Histogram arithmetic                                                *)
(* ------------------------------------------------------------------ *)

let test_histogram_buckets () =
  let open Telemetry.Histogram in
  checki "1ns is bucket 0" 0 (bucket_of 1e-9);
  checki "0 clamps to bucket 0" 0 (bucket_of 0.0);
  checki "1.5ns is bucket 1" 1 (bucket_of 1.5e-9);
  checki "4ns is bucket 4" 4 (bucket_of 4e-9);
  checki "1s is bucket 59" 59 (bucket_of 1.0);
  checki "huge values clamp to the last bucket" 119 (bucket_of 1e30);
  let lo, hi = bucket_bounds 4 in
  checkf "bucket 4 lower bound is 4ns" 4e-9 lo;
  checkb "bounds are increasing" true (hi > lo);
  (* Adjacent buckets tile the axis: each upper bound is the next lower. *)
  let lo5, _ = bucket_bounds 5 in
  checkf "bucket 4 hi == bucket 5 lo" hi lo5

let test_histogram_percentiles =
  qcheck ~count:200 "histogram percentiles are ordered and bounded"
    QCheck2.Gen.(list_size (int_range 1 200) (float_range 1e-9 1e-2))
    (fun vs ->
      let open Telemetry.Histogram in
      let h = create () in
      List.iter (record h) vs;
      let p50 = percentile h 0.50
      and p90 = percentile h 0.90
      and p99 = percentile h 0.99
      and vmax = max_value h in
      count h = List.length vs
      && p50 <= p90 && p90 <= p99 && p99 <= vmax
      && vmax = List.fold_left Float.max neg_infinity vs
      && percentile h 1.0 = vmax)

let test_histogram_merge =
  qcheck ~count:100 "merged histogram == histogram of concatenated samples"
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 80) (float_range 1e-9 1e-3))
        (list_size (int_range 0 80) (float_range 1e-9 1e-3)))
    (fun (a, b) ->
      let open Telemetry.Histogram in
      let ha = create () and hb = create () and hab = create () in
      List.iter (record ha) a;
      List.iter (record hb) b;
      List.iter (record hab) (a @ b);
      merge_into ~into:ha hb;
      count ha = count hab
      && nonempty_buckets ha = nonempty_buckets hab
      && max_value ha = max_value hab
      && Float.abs (mean ha -. mean hab) < 1e-12)

let test_timed_records () =
  with_telemetry true @@ fun () ->
  Telemetry.reset ();
  for _ = 1 to 5 do
    Telemetry.timed "unit-test-span" (fun () -> ignore (Sys.opaque_identity 1))
  done;
  (match List.assoc_opt "unit-test-span" (Telemetry.histograms ()) with
  | Some h -> checki "five spans recorded" 5 (Telemetry.Histogram.count h)
  | None -> Alcotest.fail "span histogram missing");
  with_telemetry false (fun () ->
      Telemetry.timed "unit-test-span" (fun () -> ()));
  (match List.assoc_opt "unit-test-span" (Telemetry.histograms ()) with
  | Some h ->
    checki "disabled timed records nothing" 5 (Telemetry.Histogram.count h)
  | None -> Alcotest.fail "span histogram missing")

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let test_export () =
  with_telemetry true @@ fun () ->
  let g = Generators.grid 4 4 in
  let e = Option.get (Catalog.find "full") in
  let inst, _ = e.Catalog.build ~seed:1 ~eps:0.5 g in
  Telemetry.reset ();
  ignore (Scheme.route inst ~src:0 ~dst:15);
  let jsonl = Telemetry.to_jsonl () in
  let lines = String.split_on_char '\n' (String.trim jsonl) in
  checkb "every jsonl line is a counter or histogram object" true
    (List.for_all
       (fun l ->
         String.length l > 0
         && l.[0] = '{'
         && (String.length l < 17
            || String.sub l 0 16 = "{\"type\":\"counter"
            || String.sub l 0 16 = "{\"type\":\"histogr"))
       lines);
  checki "seventeen counter lines" 17
    (List.length
       (List.filter
          (fun l ->
            String.length l >= 16 && String.sub l 0 16 = "{\"type\":\"counter")
          lines));
  let csv = Telemetry.to_csv () in
  let csv_lines = String.split_on_char '\n' (String.trim csv) in
  checkb "csv has a header plus the seventeen counters" true
    (List.length csv_lines >= 18)

let suite =
  [
    test_identity;
    test_identity_resilient;
    case "counter pins on a single route" test_counters_single_route;
    case "batch shard merge equals serial counters"
      test_batch_merge_matches_serial;
    case "fast plane hits count compiled routes" test_fast_plane_hits;
    case "trace events narrate the route" test_trace_events;
    case "histogram bucket pins" test_histogram_buckets;
    test_histogram_percentiles;
    test_histogram_merge;
    case "timed spans land in histograms" test_timed_records;
    case "jsonl and csv export" test_export;
  ]
