(* The experiment harness: reproduces the paper's Table 1 empirically and
   runs one derived experiment per theorem (see EXPERIMENTS.md). Every
   number printed here comes from messages simulated hop by hop in the
   fixed-port model. Set CR_BENCH_QUICK=1 for a reduced run. *)
open Cr_graph
open Cr_routing
open Cr_core

let quick = Sys.getenv_opt "CR_BENCH_QUICK" <> None

(* Run only the named sections: CR_BENCH_ONLY=throughput (comma-separated).
   The CI smoke jobs use this to exercise one section without paying for
   the whole harness. *)
let only_sections =
  match Sys.getenv_opt "CR_BENCH_ONLY" with
  | None -> None
  | Some s ->
    Some (List.filter (( <> ) "") (List.map String.trim (String.split_on_char ',' s)))

(* Optional machine-readable output: set CR_BENCH_CSV=<dir> to mirror the
   main tables as CSV files. *)
let csv_dir = Sys.getenv_opt "CR_BENCH_CSV"

let csv_channels : (string, out_channel) Hashtbl.t = Hashtbl.create 4

let csv file ~header row =
  match csv_dir with
  | None -> ()
  | Some dir ->
    let oc =
      match Hashtbl.find_opt csv_channels file with
      | Some oc -> oc
      | None ->
        (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
        let oc = open_out (Filename.concat dir (file ^ ".csv")) in
        output_string oc (String.concat "," header ^ "\n");
        Hashtbl.replace csv_channels file oc;
        oc
    in
    output_string oc (String.concat "," row ^ "\n")

let csv_close () = Hashtbl.iter (fun _ oc -> close_out oc) csv_channels

let banner title =
  Printf.printf "\n%s\n%s\n%s\n" (String.make 78 '=') title (String.make 78 '=')

(* Wall time via the monotonic-enough system clock; [Sys.time] alone would
   report CPU seconds, which reads misleadingly low on I/O waits and —
   worse — {e sums across cores} once preprocessing fans out over domains,
   making parallel runs look slower. Both are reported: wall is what a user
   waits for, cpu/wall is a crude utilization check. *)
let timed name f =
  let w0 = Unix.gettimeofday () in
  let c0 = Sys.time () in
  let r = f () in
  Printf.printf "  (%s: %.1fs wall, %.1fs cpu)\n%!" name
    (Unix.gettimeofday () -. w0)
    (Sys.time () -. c0);
  r

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Graph suite                                                         *)
(* ------------------------------------------------------------------ *)

let suite_n = if quick then 200 else 512

let er_graph ?(n = suite_n) ~seed () =
  Generators.connect ~seed
    (Generators.gnp ~seed n (Float.min 1.0 (6.0 /. float_of_int n)))

let ba_graph ?(n = suite_n) ~seed () = Generators.barabasi_albert ~seed n 3

let torus_graph ?(n = suite_n) () =
  let side = int_of_float (sqrt (float_of_int n)) in
  Generators.torus side side

let caveman_graph ?(n = suite_n) ~seed () =
  Generators.caveman ~seed ~cliques:(max 2 (n / 24)) ~size:24 ~rewire:0.08

let weighted ~seed g = Generators.with_random_weights ~seed ~lo:1.0 ~hi:8.0 g

let unweighted_suite =
  [
    ("erdos-renyi", er_graph ~seed:42 ());
    ("barabasi-albert", ba_graph ~seed:43 ());
    ("torus", torus_graph ());
    ("caveman", caveman_graph ~seed:44 ());
  ]

(* Extra families used by the per-family section only (table1 keeps the
   four canonical ones so its aggregates stay comparable across runs). *)
let extra_families () =
  [
    ("watts-strogatz", Generators.connect ~seed:48
        (Generators.watts_strogatz ~seed:48 suite_n ~k:3 ~beta:0.1));
    ("geometric", Generators.connect ~seed:49
        (Graph.unit_weighted
           (Generators.random_geometric ~seed:49 suite_n
              ~radius:(2.0 *. sqrt (log (float_of_int suite_n) /. float_of_int suite_n)))));
  ]

let weighted_suite =
  List.map (fun (n, g) -> (n, weighted ~seed:45 g)) unweighted_suite

let pair_budget = if quick then 400 else 1500

let eval_instance apsp (inst : Scheme.instance) =
  let n = Cr_graph.Graph.n inst.Scheme.graph in
  let pairs = Scheme.sample_pairs ~seed:7 ~n ~count:pair_budget in
  Scheme.evaluate inst apsp pairs

(* ------------------------------------------------------------------ *)
(* Construction: serial vs parallel preprocessing                      *)
(* ------------------------------------------------------------------ *)

(* One header for both construction experiments: serial-vs-parallel rows
   put their two walls in (base_wall_s, other_wall_s) and zero the cache
   columns; uncached-vs-cached rows do the reverse. *)
let construction_csv_header =
  [ "scheme"; "phase"; "domains"; "base_wall_s"; "other_wall_s"; "identical";
    "substrate_hits"; "substrate_misses"; "alloc_mb_saved";
    "peak_rss_mb"; "gc_alloc_mb" ]

(* Bench hygiene: every construction row carries the process peak RSS (or
   the heap fallback on non-procfs platforms) so memory regressions show
   up in the CSV history, not just wall time. *)
let peak_rss_mb () = float_of_int (Mem_probe.peak ()).Mem_probe.bytes /. 1e6

let section_construction () =
  banner "[construction] Preprocessing wall time: 1 domain vs CR_DOMAINS";
  let par_domains = Pool.domains (Pool.default ()) in
  let g = er_graph ~seed:77 () in
  Printf.printf
    "Each scheme is built twice on erdos-renyi n=%d: once with the default\n\
     pool forced to a single domain, once with %d domain(s). Outputs must be\n\
     identical — same routed samples, tables and labels — because the pool\n\
     writes per-source results into fixed slots regardless of scheduling.\n\n"
    suite_n par_domains;
  Printf.printf "%-16s %10s %10s %8s %10s\n" "scheme" "serial-s" "par-s"
    "speedup" "identical";
  Printf.printf "%s\n" (String.make 60 '-');
  let total_serial = ref 0.0 and total_par = ref 0.0 and all_same = ref true in
  let row name build check_same =
    let a0 = Gc.allocated_bytes () in
    Pool.set_default_domains 1;
    let serial, ts = wall build in
    Pool.set_default_domains par_domains;
    let par, tp = wall build in
    let alloc_mb = (Gc.allocated_bytes () -. a0) /. 1048576.0 in
    let same = check_same serial par in
    total_serial := !total_serial +. ts;
    total_par := !total_par +. tp;
    if not same then all_same := false;
    Printf.printf "%-16s %10.2f %10.2f %8.2f %10s\n%!" name ts tp
      (ts /. Float.max tp 1e-9)
      (string_of_bool same);
    csv "construction"
      ~header:construction_csv_header
      [ name; "serial-vs-parallel"; string_of_int par_domains;
        Printf.sprintf "%.4f" ts; Printf.sprintf "%.4f" tp;
        string_of_bool same; "0"; "0"; "0.0";
        Printf.sprintf "%.1f" (peak_rss_mb ());
        Printf.sprintf "%.1f" alloc_mb ]
  in
  row "apsp"
    (fun () -> Apsp.compute ~caller:"[construction] oracle" g)
    (fun a b ->
      let n = Graph.n g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if Apsp.dist a u v <> Apsp.dist b u v then ok := false
        done
      done;
      !ok);
  let apsp = Apsp.compute ~caller:"[construction] oracle" g in
  List.iter
    (fun (e : Catalog.entry) ->
      row e.Catalog.id
        (fun () -> fst (e.Catalog.build ~seed:31 ~eps:0.5 g))
        (fun i1 i2 ->
          i1.Scheme.table_words = i2.Scheme.table_words
          && i1.Scheme.label_words = i2.Scheme.label_words
          && eval_instance apsp i1 = eval_instance apsp i2))
    Catalog.all;
  Printf.printf "%s\n" (String.make 60 '-');
  Printf.printf "%-16s %10.2f %10.2f %8.2f %10s\n" "total" !total_serial
    !total_par
    (!total_serial /. Float.max !total_par 1e-9)
    (string_of_bool !all_same);
  if par_domains = 1 then
    Printf.printf
      "\n(only one domain available — set CR_DOMAINS or run on a multicore\n\
       machine to see the parallel speedup)\n";
  (* --- shared-substrate catalog sweep -------------------------------- *)
  Printf.printf
    "\nShared-substrate catalog sweep (%d domain(s)): every scheme is built\n\
     once without a substrate handle, then once more against a single\n\
     Substrate.t shared across the whole sweep. Outputs must be\n\
     bit-identical; the handle's hit counters prove each shared substrate\n\
     (vicinity family, SPT, center sample, cluster) is computed once.\n\n"
    par_domains;
  Printf.printf "%-16s %10s %10s %8s %7s %7s %9s %10s\n" "scheme"
    "uncached-s" "cached-s" "speedup" "hits" "misses" "alloc-mb" "identical";
  Printf.printf "%s\n" (String.make 84 '-');
  let sub = Substrate.create g in
  let tot_un = ref 0.0
  and tot_ca = ref 0.0
  and tot_alloc = ref 0.0
  and sweep_ok = ref true in
  let prev = ref (Substrate.stats sub) in
  List.iter
    (fun (e : Catalog.entry) ->
      let a0 = Gc.allocated_bytes () in
      let uncached, tu = wall (fun () -> fst (e.Catalog.build ~seed:31 ~eps:0.5 g)) in
      let a1 = Gc.allocated_bytes () in
      let cached, tc =
        wall (fun () -> fst (e.Catalog.build ~substrate:sub ~seed:31 ~eps:0.5 g))
      in
      let a2 = Gc.allocated_bytes () in
      let st = Substrate.stats sub in
      let hits = Substrate.hits st - Substrate.hits !prev in
      let misses = Substrate.misses st - Substrate.misses !prev in
      prev := st;
      let alloc_mb = (a1 -. a0 -. (a2 -. a1)) /. 1048576.0 in
      let same =
        uncached.Scheme.table_words = cached.Scheme.table_words
        && uncached.Scheme.label_words = cached.Scheme.label_words
        && eval_instance apsp uncached = eval_instance apsp cached
      in
      tot_un := !tot_un +. tu;
      tot_ca := !tot_ca +. tc;
      tot_alloc := !tot_alloc +. alloc_mb;
      if not same then sweep_ok := false;
      Printf.printf "%-16s %10.2f %10.2f %8.2f %7d %7d %9.1f %10s\n%!"
        e.Catalog.id tu tc
        (tu /. Float.max tc 1e-9)
        hits misses alloc_mb
        (if same then "true" else "VIOLATED");
      csv "construction"
        ~header:construction_csv_header
        [ e.Catalog.id; "uncached-vs-cached"; string_of_int par_domains;
          Printf.sprintf "%.4f" tu; Printf.sprintf "%.4f" tc;
          string_of_bool same; string_of_int hits; string_of_int misses;
          Printf.sprintf "%.2f" alloc_mb;
          Printf.sprintf "%.1f" (peak_rss_mb ());
          Printf.sprintf "%.1f" ((a2 -. a0) /. 1048576.0) ])
    Catalog.all;
  Printf.printf "%s\n" (String.make 84 '-');
  let st = Substrate.stats sub in
  Printf.printf "%-16s %10.2f %10.2f %8.2f %7d %7d %9.1f %10s\n" "total"
    !tot_un !tot_ca
    (!tot_un /. Float.max !tot_ca 1e-9)
    (Substrate.hits st) (Substrate.misses st) !tot_alloc
    (if !sweep_ok then "true" else "VIOLATED");
  Printf.printf "\nsubstrate reuse by category (hits/misses):";
  List.iter
    (fun (cat, h, m) -> Printf.printf " %s %d/%d" cat h m)
    (Substrate.stats_rows st);
  Printf.printf "\nidentity check: %s\n"
    (if !sweep_ok then "OK — cached and uncached builds are bit-identical"
     else "VIOLATED — cached builds diverge from uncached builds")

(* ------------------------------------------------------------------ *)
(* Scale: the million-vertex tier                                      *)
(* ------------------------------------------------------------------ *)

(* The subquadratic story measured end to end: power-law (Internet-like)
   graphs built through the streaming CSR path, packed to int32/float32
   storage, preprocessed by the TZ-style schemes whose tables are o(n^2),
   and evaluated with the APSP-free sampled workload — no n^2 structure
   anywhere in the sweep. Ceilings: CR_SCALE_MAX_N caps the size list (the
   CI smoke job sets 20000); per-scheme caps below keep inherently
   super-linear table bounds (tz-k2: Theta(n^1.5) total words) off the
   sizes where they would dominate the run. *)

let scale_csv_header =
  [ "scheme"; "n"; "m"; "domains"; "serial_wall_s"; "par_wall_s"; "identical";
    "graph_bytes_per_vertex"; "plane_bytes_per_vertex"; "peak_rss_mb";
    "rss_exact"; "samples"; "p50"; "p95"; "p99"; "max_stretch";
    "stretch_alpha"; "stretch_beta"; "bound_ok" ]

let section_scale () =
  banner "[scale] Million-vertex tier: streaming build, packed CSR, APSP-free eval";
  let par_domains = Pool.domains (Pool.default ()) in
  let max_n =
    match Sys.getenv_opt "CR_SCALE_MAX_N" with
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some v when v > 0 -> v
      | _ -> 1_000_000)
    | None -> if quick then 5_000 else 1_000_000
  in
  (* The decade ladder up to the ceiling; a ceiling that is not itself a
     decade still runs as the top size (the CI smoke sets 20000). *)
  let sizes =
    let below = List.filter (fun n -> n < max_n) [ 10_000; 100_000; 1_000_000 ] in
    if max_n <= 1_000_000 then below @ [ max_n ]
    else below @ [ 1_000_000 ]
  in
  (* Schemes with their size ceilings: tz-k2 stores Theta(sqrt n) words per
     vertex, super-linear in total, so it stops at 10^5; tz-k3's n^(1/3)
     tables carry to the million-vertex tier, as do the Roditty-Tov
     schemes now that their quadratic substrates resolve to the lazy
     stores past CR_RT_LAZY_N (the small sizes still exercise the eager
     reference paths). *)
  let schemes =
    [ ("tz-k2", 100_000); ("tz-k3", 1_000_000); ("rt-5eps", 1_000_000);
      ("rt-4km7-k3", 1_000_000) ]
  in
  Printf.printf
    "Power-law graphs (Chung-Lu, exponent 2.1), streamed into packed\n\
     int32/float32 CSR storage; preprocess wall serial vs %d domain(s);\n\
     stretch from %s sampled source SPTs — no APSP matrix at any size.\n"
    par_domains
    (if quick then "8x8" else "64x32");
  (* The identity check rides the smallest size, where the reference path
     (edge-list construction) is still cheap. *)
  let n0 = List.hd sizes in
  let g0 = Generators.power_law ~seed:91 n0 in
  let streaming_ok =
    Graph.csr g0 = Graph.csr (Graph.of_edges ~n:n0 (Graph.edges g0))
  in
  Printf.printf "identity streaming-vs-of_edges (n=%d): %s\n" n0
    (if streaming_ok then "OK" else "VIOLATED");
  let sources = if quick then 8 else 64
  and per_source = if quick then 8 else 32 in
  Printf.printf "\n%-11s %9s %10s %9s %9s %6s %8s %8s %7s %7s %7s %9s %7s\n"
    "scheme" "n" "m" "serial-s" "par-s" "ident" "graph-B/v" "plane-B/v"
    "p50" "p95" "p99" "rss-MB" "bound";
  Printf.printf "%s\n" (String.make 120 '-');
  List.iter
    (fun nsize ->
      let g, tgen =
        wall (fun () ->
            Graph.pack ~float32:true (Generators.power_law ~seed:91 nsize))
      in
      let graph_bpv =
        float_of_int (Graph.storage_bytes g) /. float_of_int nsize
      in
      Printf.printf
        "-- n=%d: m=%d built+packed in %.1fs (%.1f graph bytes/vertex)\n%!"
        nsize (Graph.m g) tgen graph_bpv;
      let pairs, tw =
        wall (fun () -> Workload.sampled_pairs ~seed:7 ~sources ~per_source g)
      in
      Printf.printf "   %d sampled (pair, distance) probes in %.1fs\n%!"
        (List.length pairs) tw;
      let graph_words = Obj.reachable_words (Obj.repr g) in
      List.iter
        (fun (id, cap) ->
          if nsize > cap then
            Printf.printf
              "%-11s %9d   skipped (tables super-linear beyond n=%d)\n%!" id
              nsize cap
          else begin
            let e = Option.get (Catalog.find id) in
            let bound = ref (infinity, 0.0) in
            let build () =
              let inst, b = e.Catalog.build ~seed:31 ~eps:0.5 g in
              bound := b;
              inst
            in
            Pool.set_default_domains 1;
            let serial, ts = wall build in
            (* A 1-domain pool rebuild would measure the same code path
               twice; only pay for the second build when it can differ. *)
            let par, tp =
              if par_domains = 1 then (serial, ts)
              else begin
                Pool.set_default_domains par_domains;
                wall build
              end
            in
            Pool.set_default_domains par_domains;
            let same =
              serial.Scheme.table_words = par.Scheme.table_words
              && serial.Scheme.label_words = par.Scheme.label_words
            in
            (* reachable_words sees the OCaml heap only; Bigarray payloads
               (the packed vicinity families) live off-heap and must be
               counted explicitly or the column undercounts exactly the
               storage this tier is about. *)
            let plane_bpv =
              float_of_int
                ((8 * max 0 (Obj.reachable_words (Obj.repr par) - graph_words))
                + par.Scheme.big_bytes)
              /. float_of_int nsize
            in
            let ev = Scheme.evaluate_sampled par pairs in
            let ps = Scheme.percentiles ev [ 0.5; 0.95; 0.99 ] in
            let p50, p95, p99 =
              match ps with [ a; b; c ] -> (a, b, c) | _ -> (1.0, 1.0, 1.0)
            in
            let rss = Mem_probe.peak () in
            let rss_mb = float_of_int rss.Mem_probe.bytes /. 1e6 in
            (* The paper guarantee is multiplicative past the additive
               term: a sampled stretch may exceed alpha only on pairs
               within beta of the true distance, so the strict check
               applies to the (alpha, 0) schemes in this tier. *)
            let alpha, beta = !bound in
            let bound_ok =
              beta > 0.0 || Scheme.max_stretch ev <= alpha +. 1e-6
            in
            Printf.printf
              "%-11s %9d %10d %9.1f %9.1f %6s %8.1f %8.1f %7.3f %7.3f %7.3f %9.0f %s\n%!"
              id nsize (Graph.m g) ts tp
              (if same then "true" else "VIOLATED")
              graph_bpv plane_bpv p50 p95 p99 rss_mb
              (if bound_ok then Printf.sprintf "<=%.2f" alpha
               else "BOUND-VIOLATED");
            csv "scale" ~header:scale_csv_header
              [ id; string_of_int nsize; string_of_int (Graph.m g);
                string_of_int par_domains; Printf.sprintf "%.4f" ts;
                Printf.sprintf "%.4f" tp; string_of_bool same;
                Printf.sprintf "%.1f" graph_bpv;
                Printf.sprintf "%.1f" plane_bpv;
                Printf.sprintf "%.1f" rss_mb;
                string_of_bool rss.Mem_probe.exact;
                string_of_int (Array.length ev.Scheme.samples);
                Printf.sprintf "%.4f" p50; Printf.sprintf "%.4f" p95;
                Printf.sprintf "%.4f" p99;
                Printf.sprintf "%.4f" (Scheme.max_stretch ev);
                Printf.sprintf "%.4f" alpha; Printf.sprintf "%.4f" beta;
                string_of_bool bound_ok ]
          end)
        schemes)
    sizes;
  Printf.printf "%s\n" (String.make 120 '-');
  (* Peak RSS is a process-wide high-water mark: per-row readings are
     cumulative, which is why the sizes run smallest first. The probe
     status line is what the CI smoke job asserts on. *)
  let p = Mem_probe.peak () in
  Printf.printf "rss-probe: %s (peak %.0f MB, %s)\n"
    (if p.Mem_probe.bytes > 0 then "OK" else "FAILED")
    (float_of_int p.Mem_probe.bytes /. 1e6)
    (if p.Mem_probe.exact then "VmHWM" else "heap fallback");
  Printf.printf "identity check: %s\n"
    (if streaming_ok then
       "OK — streaming construction agrees with the reference path"
     else "VIOLATED — construction paths diverge")

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let table1_row ~eps (e : Catalog.entry) graphs =
  (* Aggregate worst-case over the suite. *)
  let max_stretch = ref 1.0 in
  let avg_acc = ref 0.0 in
  let avg_cnt = ref 0 in
  let max_table = ref 0 in
  let max_label = ref 0 in
  let max_header = ref 0 in
  let all_within = ref true in
  List.iter
    (fun (_gname, g, apsp) ->
      let inst, (alpha, beta) = e.Catalog.build ~seed:11 ~eps g in
      let ev = eval_instance apsp inst in
      max_stretch := Float.max !max_stretch (Scheme.max_stretch ev);
      avg_acc := !avg_acc +. Scheme.avg_stretch ev;
      incr avg_cnt;
      max_table := max !max_table (Scheme.max_table_words inst);
      max_label := max !max_label (Scheme.max_label_words inst);
      max_header := max !max_header ev.Scheme.header_words_peak;
      if not (Scheme.within ev ~alpha ~beta) then all_within := false)
    graphs;
  let avg = !avg_acc /. float_of_int (max 1 !avg_cnt) in
  Printf.printf "%-16s %-11s %-16s %8.3f %8.3f %9d %6d %6d   %s\n%!"
    e.Catalog.id e.Catalog.paper_stretch e.Catalog.paper_space !max_stretch avg
    !max_table !max_label !max_header
    (if !all_within then "ok" else "VIOLATED");
  csv "table1"
    ~header:
      [ "scheme"; "paper_stretch"; "paper_space"; "max_stretch"; "avg_stretch";
        "table_max_words"; "label_max_words"; "header_peak_words"; "bound_ok" ]
    [ e.Catalog.id; e.Catalog.paper_stretch; e.Catalog.paper_space;
      Printf.sprintf "%.4f" !max_stretch; Printf.sprintf "%.4f" avg;
      string_of_int !max_table; string_of_int !max_label;
      string_of_int !max_header; string_of_bool !all_within ]

let section_table1 () =
  banner "[table1] Stretch / table-size tradeoffs (paper Table 1, measured)";
  Printf.printf
    "Suite: 4 unweighted + 4 weighted graphs, n=%d, %d sampled pairs each.\n"
    suite_n pair_budget;
  Printf.printf
    "Columns: measured worst/avg multiplicative stretch over the suite, max\n\
     routing-table words per vertex, max label words, peak header words, and\n\
     whether every routed path met the scheme's proven (alpha,beta) bound.\n\n";
  Printf.printf "%-16s %-11s %-16s %8s %8s %9s %6s %6s   %s\n" "scheme"
    "paper" "space" "max-str" "avg-str" "tbl-max" "label" "hdr" "bound";
  Printf.printf "%s\n" (String.make 92 '-');
  let prep suite =
    List.map (fun (name, g) -> (name, g, Apsp.compute ~caller:"[table1] oracle" g)) suite
  in
  let unw = timed "apsp unweighted suite" (fun () -> prep unweighted_suite) in
  let wgt = timed "apsp weighted suite" (fun () -> prep weighted_suite) in
  Printf.printf "--- unweighted graphs ---\n";
  List.iter
    (fun (e : Catalog.entry) -> table1_row ~eps:0.5 e unw)
    Catalog.all;
  Printf.printf "--- weighted graphs ---\n";
  List.iter
    (fun (e : Catalog.entry) ->
      if e.Catalog.weighted_ok then table1_row ~eps:0.5 e wgt)
    Catalog.all;
  Printf.printf
    "--- theory-only rows (constructions from other papers; see DESIGN.md) ---\n";
  Printf.printf "%-16s %-11s %-16s   (not implemented: Abraham-Gavoille DISC'11)\n"
    "ag-2-1" "(2,1)" "n^3/4";
  Printf.printf "%-16s %-11s %-16s   (not implemented: Chechik PODC'13)\n"
    "chechik" "10.52" "n^1/4 logD"

(* ------------------------------------------------------------------ *)
(* Per-family breakdown of the key schemes                             *)
(* ------------------------------------------------------------------ *)

let section_families () =
  banner "[fig:families] Stretch per graph family (key schemes)";
  Printf.printf "%-18s %-12s %10s %10s %10s\n" "family" "scheme" "max-str"
    "avg-str" "p99";
  Printf.printf "%s\n" (String.make 64 '-');
  let schemes = [ "tz-k2"; "rt-3eps"; "rt-3eps-ni"; "rt-2eps1"; "rt-5eps" ] in
  List.iter
    (fun (gname, g) ->
      let apsp = Apsp.compute ~caller:"[families] oracle" g in
      List.iter
        (fun id ->
          let e = Option.get (Catalog.find id) in
          let inst, _ = e.Catalog.build ~seed:23 ~eps:0.5 g in
          let ev = eval_instance apsp inst in
          Printf.printf "%-18s %-12s %10.3f %10.3f %10.3f\n%!" gname id
            (Scheme.max_stretch ev) (Scheme.avg_stretch ev)
            (Scheme.percentile_stretch ev 0.99))
        schemes)
    (unweighted_suite @ extra_families ())

(* ------------------------------------------------------------------ *)
(* Distance-oracle comparison points                                   *)
(* ------------------------------------------------------------------ *)

let section_oracles () =
  banner "[oracles] Centralized comparison points (TZ 2k-1, PR (2,1))";
  let g = er_graph ~seed:46 () in
  let apsp = Apsp.compute ~caller:"[oracles] oracle" g in
  let n = Graph.n g in
  let pairs = Scheme.sample_pairs ~seed:9 ~n ~count:pair_budget in
  Printf.printf "%-14s %-10s %10s %10s %12s\n" "oracle" "paper" "max-str"
    "avg-str" "total-words";
  Printf.printf "%s\n" (String.make 60 '-');
  let report name paper query total =
    let worst = ref 1.0 and acc = ref 0.0 and cnt = ref 0 in
    List.iter
      (fun (u, v) ->
        let d = Apsp.dist apsp u v in
        if d > 0.0 && d < infinity then begin
          let s = query u v /. d in
          worst := Float.max !worst s;
          acc := !acc +. s;
          incr cnt
        end)
      pairs;
    Printf.printf "%-14s %-10s %10.3f %10.3f %12d\n" name paper !worst
      (!acc /. float_of_int (max 1 !cnt))
      total
  in
  List.iter
    (fun k ->
      let o = Cr_baselines.Tz_oracle.preprocess ~seed:12 g ~k in
      report
        (Printf.sprintf "tz-oracle-k%d" k)
        (Printf.sprintf "%d" ((2 * k) - 1))
        (Cr_baselines.Tz_oracle.query o)
        (Cr_baselines.Tz_oracle.total_words o))
    [ 1; 2; 3 ];
  let pr = Cr_baselines.Pr_oracle.preprocess g in
  report "pr-oracle" "(2,1)" (Cr_baselines.Pr_oracle.query pr)
    (Cr_baselines.Pr_oracle.total_words pr)

(* ------------------------------------------------------------------ *)
(* Space scaling (Theorems 10 and 11 vs the TZ baselines)              *)
(* ------------------------------------------------------------------ *)

let fit_slope points =
  (* least-squares slope of ln y over ln x *)
  let pts = List.map (fun (x, y) -> (log x, log y)) points in
  let n = float_of_int (List.length pts) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 pts in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 pts in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 pts in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 pts in
  ((n *. sxy) -. (sx *. sy)) /. ((n *. sxx) -. (sx *. sx))

let section_space_scaling () =
  banner
    "[fig:space-scaling] Table size vs n (log-log slope ~ the paper's exponent)";
  let sizes = if quick then [ 96; 192; 384 ] else [ 128; 256; 512; 1024 ] in
  let schemes =
    [ "tz-k2"; "tz-k3"; "rt-3eps"; "rt-2eps1"; "rt-5eps"; "rt-ptr-plus-l2" ]
  in
  Printf.printf "%-16s" "scheme";
  List.iter (fun n -> Printf.printf " %10s" (Printf.sprintf "n=%d" n)) sizes;
  Printf.printf " %8s %s\n" "slope" "paper exponent";
  Printf.printf "%s\n" (String.make 90 '-');
  List.iter
    (fun id ->
      let e = Option.get (Catalog.find id) in
      let points =
        List.map
          (fun n ->
            let g = er_graph ~n ~seed:(50 + n) () in
            let inst, _ = e.Catalog.build ~seed:13 ~eps:0.5 g in
            (float_of_int n, Scheme.avg_table_words inst))
          sizes
      in
      Printf.printf "%-16s" id;
      List.iter (fun (_, y) -> Printf.printf " %10.0f" y) points;
      Printf.printf " %8.2f %s\n%!" (fit_slope points) e.Catalog.paper_space;
      List.iter
        (fun (x, y) ->
          csv "space_scaling"
            ~header:[ "scheme"; "n"; "avg_table_words"; "paper_space" ]
            [ id; Printf.sprintf "%.0f" x; Printf.sprintf "%.1f" y;
              e.Catalog.paper_space ])
        points)
    schemes;
  Printf.printf
    "\nNote: measured slopes carry the q~ = q log n vicinity factor and the\n\
     additive q term, so they sit above the bare exponent at these sizes;\n\
     the ordering across schemes is the claim under test.\n"

(* ------------------------------------------------------------------ *)
(* Where the O~ budget goes: component breakdown of the two headline    *)
(* schemes                                                              *)
(* ------------------------------------------------------------------ *)

let section_space_breakdown () =
  banner "[fig:space-breakdown] Table space by component (Theorems 10 & 11)";
  let g = er_graph ~seed:73 () in
  let print_breakdown name parts =
    let total = List.fold_left (fun a (_, w) -> a + w) 0 parts in
    Printf.printf "%s (total %d words, %.1f words/vertex):\n" name total
      (float_of_int total /. float_of_int (Graph.n g));
    List.iter
      (fun (comp, w) ->
        Printf.printf "  %-24s %10d  (%5.1f%%)\n" comp w
          (100.0 *. float_of_int w /. float_of_int (max 1 total)))
      parts
  in
  let t10 = Scheme2eps1.preprocess ~eps:0.5 ~seed:24 g in
  print_breakdown "rt-2eps1" (Scheme2eps1.space_breakdown t10);
  let t11 = Scheme5eps.preprocess ~eps:0.5 ~seed:24 (weighted ~seed:74 g) in
  print_breakdown "rt-5eps" (Scheme5eps.space_breakdown t11)

(* ------------------------------------------------------------------ *)
(* eps sweep (Theorems 10 and 11)                                      *)
(* ------------------------------------------------------------------ *)

let section_eps_sweep () =
  banner "[fig:eps-sweep] Stretch and space vs eps (Theorems 10 & 11)";
  (* A torus: its Theta(sqrt n) diameter makes the sequences of Lemmas 7/8
     actually grow, so eps has a visible effect. *)
  let g_unw = torus_graph () in
  let apsp_unw = Apsp.compute ~caller:"[eps-sweep] unweighted oracle" g_unw in
  let g_w = weighted ~seed:62 g_unw in
  let apsp_w = Apsp.compute ~caller:"[eps-sweep] weighted oracle" g_w in
  let epss = [ 1.0; 0.5; 0.25; 0.125 ] in
  Printf.printf "%-10s %8s %12s %12s %12s %10s\n" "scheme" "eps" "bound"
    "max-stretch" "avg-stretch" "tbl-max";
  Printf.printf "%s\n" (String.make 70 '-');
  List.iter
    (fun eps ->
      let t = Scheme2eps1.preprocess ~eps ~seed:14 g_unw in
      let inst = Scheme2eps1.instance t in
      let alpha, beta = Scheme2eps1.stretch_bound t in
      let ev = eval_instance apsp_unw inst in
      Printf.printf "%-10s %8.3f %12s %12.3f %12.3f %10d\n%!" "rt-2eps1" eps
        (Printf.sprintf "(%.2f,%g)" alpha beta)
        (Scheme.max_stretch ev) (Scheme.avg_stretch ev)
        (Scheme.max_table_words inst))
    epss;
  List.iter
    (fun eps ->
      let t = Scheme5eps.preprocess ~eps ~seed:15 g_w in
      let inst = Scheme5eps.instance t in
      let alpha, beta = Scheme5eps.stretch_bound t in
      let ev = eval_instance apsp_w inst in
      Printf.printf "%-10s %8.3f %12s %12.3f %12.3f %10d\n%!" "rt-5eps" eps
        (Printf.sprintf "(%.2f,%g)" alpha beta)
        (Scheme.max_stretch ev) (Scheme.avg_stretch ev)
        (Scheme.max_table_words inst))
    epss

(* ------------------------------------------------------------------ *)
(* Stretch by distance regime                                          *)
(* ------------------------------------------------------------------ *)

let section_stretch_by_distance () =
  banner "[fig:stretch-by-distance] Stretch per distance quartile";
  let g = torus_graph () in
  let apsp = Apsp.compute ~caller:"[stretch-by-distance] oracle" g in
  let n = Graph.n g in
  let strata =
    Workload.stratified apsp ~seed:25 ~n ~buckets:4 ~per_bucket:400
  in
  let schemes = [ "tz-k2"; "tz-k3"; "rt-2eps1"; "rt-5eps" ] in
  Printf.printf "%-10s" "quartile";
  List.iter (fun id -> Printf.printf " %16s" id) schemes;
  Printf.printf "\n%-10s" "(d range)";
  List.iter (fun _ -> Printf.printf " %16s" "max / avg") schemes;
  Printf.printf "\n%s\n" (String.make 80 '-');
  let instances =
    List.map
      (fun id ->
        let e = Option.get (Catalog.find id) in
        fst (e.Catalog.build ~seed:26 ~eps:0.5 g))
      schemes
  in
  Array.iter
    (fun ((lo, hi), pairs) ->
      Printf.printf "%-10s" (Printf.sprintf "%g..%g" lo hi);
      List.iter
        (fun inst ->
          let ev = Scheme.evaluate inst apsp pairs in
          Printf.printf " %16s"
            (Printf.sprintf "%.2f / %.2f" (Scheme.max_stretch ev)
               (Scheme.avg_stretch ev)))
        instances;
      Printf.printf "\n%!")
    strata;
  (* The adversarial probes: the globally farthest pairs. *)
  let far = Workload.farthest apsp ~n ~count:200 in
  Printf.printf "%-10s" "farthest";
  List.iter
    (fun inst ->
      let ev = Scheme.evaluate inst apsp far in
      Printf.printf " %16s"
        (Printf.sprintf "%.2f / %.2f" (Scheme.max_stretch ev)
           (Scheme.avg_stretch ev)))
    instances;
  Printf.printf "\n"

(* ------------------------------------------------------------------ *)
(* The two techniques in isolation (Lemmas 7 and 8)                    *)
(* ------------------------------------------------------------------ *)

let lemma_setup ~seed g =
  let n = Graph.n g in
  let q = max 1 (int_of_float (sqrt (float_of_int n))) in
  (* A sub-asymptotic vicinity factor keeps B(u, q~) well below n at these
     sizes, so the sequence machinery (not Lemma 2) carries the distance. *)
  let l = Scheme_util.vicinity_size ~n ~q ~factor:0.25 in
  let vic = Vicinity.compute_all g l in
  let coloring = Scheme_util.color_vicinities ~seed g vic ~colors:q in
  (vic, coloring)

let section_lemma7 () =
  banner "[fig:lemma7] Technique 1: (1+eps) intra-part routing";
  let g = torus_graph () in
  let apsp = Apsp.compute ~caller:"[lemma7] oracle" g in
  let vic, coloring = lemma_setup ~seed:16 g in
  Printf.printf "%8s %12s %12s %10s %10s\n" "eps" "max-stretch" "avg-stretch"
    "tbl-max" "hdr-max";
  Printf.printf "%s\n" (String.make 58 '-');
  List.iter
    (fun eps ->
      let t =
        Seq_routing.preprocess ~eps g ~vicinities:vic ~parts:coloring.classes
          ~part_of:coloring.color
      in
      (* Sample same-part pairs. *)
      let worst = ref 1.0 and acc = ref 0.0 and cnt = ref 0 and hdr = ref 0 in
      let tbl = Seq_routing.table_words t in
      Array.iter
        (fun part ->
          let k = Array.length part in
          if k >= 2 then
            for i = 0 to min 40 (k - 1) do
              let u = part.(i) and v = part.((i + (k / 2)) mod k) in
              if u <> v then begin
                let o = Seq_routing.route t ~src:u ~dst:v in
                let d = Apsp.dist apsp u v in
                let s = o.Port_model.length /. d in
                worst := Float.max !worst s;
                acc := !acc +. s;
                incr cnt;
                hdr := max !hdr o.Port_model.header_words_peak
              end
            done)
        coloring.classes;
      Printf.printf "%8.3f %12.3f %12.3f %10d %10d\n%!" eps !worst
        (!acc /. float_of_int (max 1 !cnt))
        (Array.fold_left max 0 tbl)
        !hdr)
    [ 1.0; 0.5; 0.25 ]

let section_lemma8 () =
  banner "[fig:lemma8] Technique 2: (1+eps) U_i -> W_i routing, log D headers";
  let base = torus_graph () in
  Printf.printf "%10s %8s %12s %12s %8s %10s\n" "weights" "eps" "max-stretch"
    "avg-stretch" "seq-max" "tbl-max";
  Printf.printf "%s\n" (String.make 66 '-');
  (* The cycle configuration uses deliberately tiny vicinities so the
     doubling subsequences and Claim 9 relays dominate the routes. *)
  let tight_setup ~seed g =
    let n = Graph.n g in
    let q = 6 in
    let vic = Vicinity.compute_all g 12 in
    let sets = Array.to_list (Array.map Vicinity.members vic) in
    match Coloring.make ~seed ~n ~colors:q sets with
    | Ok c -> (vic, c)
    | Error e -> invalid_arg e
  in
  List.iter
    (fun (wname, g) ->
      let apsp = Apsp.compute ~caller:"[lemma8] oracle" g in
      let vic, coloring =
        if wname = "cycle" then tight_setup ~seed:17 g
        else lemma_setup ~seed:17 g
      in
      let n = Graph.n g in
      let dests = Array.make coloring.Coloring.colors [] in
      for v = 0 to n - 1 do
        if v mod 2 = 0 then
          dests.(v mod coloring.Coloring.colors) <-
            v :: dests.(v mod coloring.Coloring.colors)
      done;
      let dests = Array.map Array.of_list dests in
      List.iter
        (fun eps ->
          let t =
            Seq_routing2.preprocess ~eps g ~vicinities:vic
              ~parts:coloring.classes ~part_of:coloring.color ~dests
          in
          let worst = ref 1.0 and acc = ref 0.0 and cnt = ref 0 in
          Array.iteri
            (fun j part ->
              let k = Array.length part in
              Array.iteri
                (fun i w ->
                  if i < 12 && k > 0 then begin
                    let u = part.(i mod k) in
                    if u <> w then begin
                      let o = Seq_routing2.route t ~src:u ~dst:w in
                      let d = Apsp.dist apsp u w in
                      let s = o.Port_model.length /. d in
                      worst := Float.max !worst s;
                      acc := !acc +. s;
                      incr cnt
                    end
                  end)
                dests.(j))
            coloring.classes;
          Printf.printf "%10s %8.3f %12.3f %12.3f %8d %10d\n%!" wname eps !worst
            (!acc /. float_of_int (max 1 !cnt))
            (Seq_routing2.max_sequence_hops t)
            (Array.fold_left max 0 (Seq_routing2.table_words t)))
        [ 1.0; 0.5; 0.25 ])
    [
      ("unit", base);
      ("1..8", weighted ~seed:65 base);
      ("1..64", Generators.with_random_weights ~seed:66 ~lo:1.0 ~hi:64.0 base);
      (* A long weighted cycle: Theta(n) normalized diameter, so sequences
         grow through many doubling subsequences and the relay re-injection
         of Claim 9 actually fires. *)
      ( "cycle",
        Generators.with_random_weights ~seed:67 ~lo:1.0 ~hi:2.0
          (Generators.cycle suite_n) );
    ]

(* ------------------------------------------------------------------ *)
(* ell sweep (Theorems 13 & 15)                                        *)
(* ------------------------------------------------------------------ *)

let section_ell_sweep () =
  banner "[fig:ell-sweep] Generalized schemes: stretch vs space across ell";
  let g = er_graph ~seed:67 () in
  let apsp = Apsp.compute ~caller:"[ell-sweep] oracle" g in
  Printf.printf "%-8s %4s %14s %12s %12s %10s\n" "variant" "ell" "bound"
    "max-stretch" "avg-stretch" "tbl-avg";
  Printf.printf "%s\n" (String.make 66 '-');
  List.iter
    (fun (variant, vname) ->
      List.iter
        (fun ell ->
          let t = Scheme_ptr.preprocess ~eps:0.5 ~seed:18 ~variant ~ell g in
          let inst = Scheme_ptr.instance t in
          let alpha, beta = Scheme_ptr.stretch_bound t in
          let ev = eval_instance apsp inst in
          Printf.printf "%-8s %4d %14s %12.3f %12.3f %10.0f\n%!" vname ell
            (Printf.sprintf "(%.2f,%g)" alpha beta)
            (Scheme.max_stretch ev) (Scheme.avg_stretch ev)
            (Scheme.avg_table_words inst))
        [ 2; 3 ])
    [ (`Minus, "minus"); (`Plus, "plus") ]

(* ------------------------------------------------------------------ *)
(* k sweep (Theorem 16 vs Thorup-Zwick)                                *)
(* ------------------------------------------------------------------ *)

let section_k_sweep () =
  banner "[fig:k-sweep] Theorem 16 (4k-7+eps) vs Thorup-Zwick (4k-5)";
  let g = weighted ~seed:68 (er_graph ~seed:69 ()) in
  let apsp = Apsp.compute ~caller:"[k-sweep] oracle" g in
  Printf.printf "%-14s %4s %10s %12s %12s %10s\n" "scheme" "k" "bound"
    "max-stretch" "avg-stretch" "tbl-avg";
  Printf.printf "%s\n" (String.make 66 '-');
  List.iter
    (fun k ->
      let tz = Cr_baselines.Tz_routing.preprocess ~seed:19 g ~k in
      let itz = Cr_baselines.Tz_routing.instance tz in
      let evz = eval_instance apsp itz in
      Printf.printf "%-14s %4d %10.2f %12.3f %12.3f %10.0f\n%!" "tz" k
        (fst (Cr_baselines.Tz_routing.stretch_bound tz))
        (Scheme.max_stretch evz) (Scheme.avg_stretch evz)
        (Scheme.avg_table_words itz);
      let t16 = Scheme4km7.preprocess ~eps:0.25 ~seed:19 g ~k in
      let i16 = Scheme4km7.instance t16 in
      let ev16 = eval_instance apsp i16 in
      Printf.printf "%-14s %4d %10.2f %12.3f %12.3f %10.0f\n%!" "rt-4km7" k
        (fst (Scheme4km7.stretch_bound t16))
        (Scheme.max_stretch ev16) (Scheme.avg_stretch ev16)
        (Scheme.avg_table_words i16))
    [ 3; 4 ]

(* ------------------------------------------------------------------ *)
(* Lemma 3 label sizes in actual bits                                  *)
(* ------------------------------------------------------------------ *)

let section_label_bits () =
  banner "[fig:label-bits] Tree-routing label sizes in bits (Lemma 3)";
  Printf.printf "%-10s %8s %10s %10s %14s\n" "tree" "n" "max-bits" "avg-bits"
    "log2(n)^2";
  Printf.printf "%s\n" (String.make 56 '-');
  let families n =
    [
      ("random", Generators.random_tree ~seed:(n + 3) n);
      ("path", Generators.path n);
      ("star", Generators.star n);
      ("binary", Generators.balanced_tree ~branching:2
                   ~depth:(int_of_float (log (float_of_int n) /. log 2.0)));
    ]
  in
  List.iter
    (fun n ->
      List.iter
        (fun (fam, g) ->
          let t = Tree_routing.of_tree g (Dijkstra.spt g 0) in
          let members = Tree_routing.members t in
          let worst = ref 0 and acc = ref 0 in
          Array.iter
            (fun v ->
              let b = Tree_routing.label_bits t v in
              worst := max !worst b;
              acc := !acc + b)
            members;
          let log2n = log (float_of_int (Array.length members)) /. log 2.0 in
          Printf.printf "%-10s %8d %10d %10.1f %14.0f\n%!" fam
            (Array.length members) !worst
            (float_of_int !acc /. float_of_int (Array.length members))
            (log2n *. log2n))
        (families n))
    (if quick then [ 128; 512 ] else [ 128; 512; 2048 ]);
  Printf.printf
    "\nWorst-case labels track c*log2(n)^2 bits (complete binary trees have\n\
     log n light levels at ~3 log n bits each); the extra loglog-n savings\n\
     of Lemma 3's citation needs alphabetic coding we did not implement.\n"

(* ------------------------------------------------------------------ *)
(* Spanner ablation (the intro's size/stretch tradeoff)                *)
(* ------------------------------------------------------------------ *)

let section_spanner () =
  banner "[fig:spanner] (2k-1)-spanners: greedy vs Baswana-Sen";
  (* Dense input: the clustering spanner only drops edges once vertices see
     several neighbors inside one cluster. *)
  let n_sp = if quick then 120 else 240 in
  let g =
    Generators.with_random_weights ~seed:70 ~lo:1.0 ~hi:4.0
      (Generators.connect ~seed:71
         (Generators.gnp ~seed:71 n_sp (24.0 /. float_of_int n_sp)))
  in
  Printf.printf "graph: n=%d m=%d\n" (Graph.n g) (Graph.m g);
  Printf.printf "%-12s %4s %8s %12s %10s\n" "algorithm" "k" "edges"
    "max-stretch" "bound";
  Printf.printf "%s\n" (String.make 50 '-');
  List.iter
    (fun k ->
      let h1 = Spanner.greedy g ~k in
      Printf.printf "%-12s %4d %8d %12.3f %10d\n%!" "greedy" k (Graph.m h1)
        (Spanner.max_stretch g h1)
        ((2 * k) - 1);
      let h2 = Spanner.baswana_sen ~seed:20 g ~k in
      Printf.printf "%-12s %4d %8d %12.3f %10d\n%!" "baswana-sen" k (Graph.m h2)
        (Spanner.max_stretch g h2)
        ((2 * k) - 1))
    [ 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* Resilience under failed links: bare schemes vs the +res wrapper     *)
(* ------------------------------------------------------------------ *)

(* Pool evaluations over several independent fault plans: delivery over all
   (pair, plan) attempts, stretch over the delivered ones. *)
let section_resilience () =
  banner "[resilience] Delivery under failed links: bare schemes vs +res";
  let g = er_graph ~seed:42 () in
  let apsp = Apsp.compute ~caller:"[resilience] oracle" g in
  let pairs_n = if quick then 150 else 400 in
  let pairs = Scheme.sample_pairs ~seed:11 ~n:(Graph.n g) ~count:pairs_n in
  let rates = [ 0.01; 0.02; 0.05 ] in
  let fault_seeds = if quick then 1 else 2 in
  Format.printf
    "Graph %a; %d sampled pairs; %d fault plan(s) per rate.@." Graph.pp g
    pairs_n fault_seeds;
  Printf.printf
    "Distances stay those of the healthy graph, so inflation prices the\n\
     detours failures force; the wrapper must deliver at least as often as\n\
     the bare scheme at every rate (strictly more whenever the bare scheme\n\
     loses messages).\n\n";
  Printf.printf "%-16s %6s  %9s %9s  %10s %10s\n" "scheme" "f%" "bare-del"
    "res-del" "bare-infl" "res-infl";
  Printf.printf "%s\n" (String.make 68 '-');
  let dominates = ref true in
  let pooled insts rate =
    (* (delivered, failed, stretch_sum) per instance, pooled over plans *)
    List.map
      (fun inst ->
        let del = ref 0 and fl = ref 0 and ss = ref 0.0 in
        for i = 0 to fault_seeds - 1 do
          let plan =
            Fault.compile
              (Fault.spec ~seed:(1009 + (7919 * i)) ~link_failure_rate:rate ())
              g
          in
          let ev = Scheme.evaluate_under_faults ~faults:plan inst apsp pairs in
          del := !del + Array.length ev.Scheme.samples;
          fl := !fl + ev.Scheme.failures;
          Array.iter (fun (d, l) -> ss := !ss +. (l /. d)) ev.Scheme.samples
        done;
        let total = !del + !fl in
        ( (if total = 0 then 1.0 else float_of_int !del /. float_of_int total),
          if !del = 0 then nan else !ss /. float_of_int !del ))
      insts
  in
  List.iter
    (fun (e : Catalog.entry) ->
      let inst, _ = e.Catalog.build ~seed:42 ~eps:0.5 g in
      let res = Resilient.instance (Resilient.wrap inst) in
      let healthy = Scheme.avg_stretch (Scheme.evaluate inst apsp pairs) in
      List.iter
        (fun rate ->
          match pooled [ inst; res ] rate with
          | [ (bare_del, bare_str); (res_del, res_str) ] ->
            let bare_infl = bare_str /. healthy
            and res_infl = res_str /. healthy in
            if
              res_del < bare_del -. 1e-9
              || (bare_del < 1.0 -. 1e-9 && res_del <= bare_del +. 1e-9)
            then dominates := false;
            Printf.printf "%-16s %6g  %8.1f%% %8.1f%%  %10.3f %10.3f\n%!"
              e.Catalog.id (100.0 *. rate) (100.0 *. bare_del)
              (100.0 *. res_del) bare_infl res_infl;
            csv "resilience"
              ~header:
                [ "scheme"; "link_failure_rate"; "bare_delivery";
                  "res_delivery"; "bare_stretch_inflation";
                  "res_stretch_inflation" ]
              [ e.Catalog.id; Printf.sprintf "%g" rate;
                Printf.sprintf "%.4f" bare_del; Printf.sprintf "%.4f" res_del;
                Printf.sprintf "%.4f" bare_infl; Printf.sprintf "%.4f" res_infl ]
          | _ -> assert false)
        rates)
    Catalog.all;
  Printf.printf "\nresilient delivery dominates the bare schemes: %s\n"
    (if !dominates then "ok" else "VIOLATED")

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: per-message routing latency              *)
(* ------------------------------------------------------------------ *)

let section_bechamel () =
  banner "[micro] Per-message simulated routing latency (Bechamel, OLS)";
  let open Bechamel in
  let g = er_graph ~n:(if quick then 128 else 256) ~seed:72 () in
  let n = Graph.n g in
  let pairs =
    Array.of_list (Scheme.sample_pairs ~seed:21 ~n ~count:256)
  in
  let mk (e : Catalog.entry) =
    let inst, _ = e.Catalog.build ~seed:22 ~eps:0.5 g in
    let i = ref 0 in
    Test.make ~name:e.Catalog.id
      (Staged.stage (fun () ->
           let u, v = pairs.(!i land 255) in
           incr i;
           ignore (Scheme.route inst ~src:u ~dst:v)))
  in
  let tests =
    List.filter_map
      (fun id -> Option.map mk (Catalog.find id))
      [ "full"; "tz-k2"; "tz-k3"; "rt-3eps"; "rt-2eps1"; "rt-5eps"; "rt-4km7-k3" ]
  in
  let test = Test.make_grouped ~name:"route" tests in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| "run" |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
  Printf.printf "%-24s %14s %8s\n" "scheme" "ns/message" "r^2";
  Printf.printf "%s\n" (String.make 50 '-');
  List.iter
    (fun (name, v) ->
      match Analyze.OLS.estimates v with
      | Some (est :: _) ->
        Printf.printf "%-24s %14.0f %8s\n" name est
          (match Analyze.OLS.r_square v with
          | Some r -> Printf.sprintf "%.3f" r
          | None -> "-")
      | _ -> Printf.printf "%-24s %14s\n" name "n/a")
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Throughput: knobs on vs knobs off vs knobs off + parallel          *)
(* ------------------------------------------------------------------ *)

let section_throughput () =
  banner "[throughput] Batched queries: knobs on vs knobs off vs parallel";
  let domains = Pool.domains (Pool.default ()) in
  let g = er_graph ~seed:51 () in
  let apsp = Apsp.compute ~caller:"[throughput] oracle" g in
  let n = Graph.n g in
  let count = if quick then 2000 else 6000 in
  let pairs = Scheme.sample_pairs ~seed:29 ~n ~count in
  let npairs = List.length pairs in
  let serial_pool = Pool.create ~domains:1 () in
  Format.printf
    "Graph %a; %d pairs per scheme; parallel runs use %d domain(s).@."
    Graph.pp g npairs domains;
  Printf.printf
    "on  = Scheme.evaluate (path recording + loop detection on)\n\
     off = evaluate_batch on 1 domain (both knobs off)\n\
     par = evaluate_batch on the default pool\n\
     Identity: knobs-off and parallel evals must match the knobs-on eval\n\
     bit for bit (same samples, failures and header peak).\n\
     on-w, off-w = minor-heap words per route with the knobs on / off,\n\
     measured serially: the deterministic proxy of the two rates.\n\n";
  Printf.printf "%-16s %10s %10s %10s %7s %7s %10s %7s %7s %6s\n" "scheme"
    "on/s" "off/s" "par/s" "spd-off" "spd-p" "identical" "on-w" "off-w"
    "hops";
  Printf.printf "%s\n" (String.make 98 '-');
  let all_identical = ref true and all_dominate = ref true in
  let all_lighter = ref true in
  (* Words the minor heap took and hops crossed, per route, over one serial
     pass; the timing passes before it have warmed any lazy cache. *)
  let per_route inst ~knobs =
    let hops = ref 0 in
    let w0 = Gc.minor_words () in
    List.iter
      (fun (u, v) ->
        let o =
          inst.Scheme.route ~faults:None ~record_path:knobs ~detect_loops:knobs
            ~src:u ~dst:v
        in
        hops := !hops + o.Port_model.hops)
      pairs;
    let per x = x /. float_of_int (max 1 npairs) in
    (per (Gc.minor_words () -. w0), per (float_of_int !hops))
  in
  (* Best of three: a single GC pause on the small quick workload can
     flip the domination check, and every repetition produces the same
     evaluation record anyway. *)
  let best f =
    let ev, t0 = wall f in
    let t = ref t0 in
    for _ = 2 to 3 do
      let _, ti = wall f in
      if ti < !t then t := ti
    done;
    (ev, !t)
  in
  List.iter
    (fun (e : Catalog.entry) ->
      let inst, _ = e.Catalog.build ~seed:33 ~eps:0.5 g in
      let ev_on, t_on = best (fun () -> Scheme.evaluate inst apsp pairs) in
      let ev_off, t_off =
        best (fun () -> Scheme.evaluate_batch ~pool:serial_pool inst apsp pairs)
      in
      let ev_p, t_p = best (fun () -> Scheme.evaluate_batch inst apsp pairs) in
      let rate t = float_of_int npairs /. Float.max t 1e-9 in
      let identical = ev_off = ev_on && ev_p = ev_on in
      if not identical then all_identical := false;
      if rate t_off < rate t_on then all_dominate := false;
      let w_on, hops = per_route inst ~knobs:true in
      let w_off, _ = per_route inst ~knobs:false in
      if w_off > w_on then all_lighter := false;
      Printf.printf
        "%-16s %10.0f %10.0f %10.0f %6.2fx %6.2fx %10s %7.1f %7.1f %6.2f\n%!"
        e.Catalog.id (rate t_on) (rate t_off) (rate t_p)
        (t_on /. Float.max t_off 1e-9)
        (t_on /. Float.max t_p 1e-9)
        (string_of_bool identical) w_on w_off hops;
      csv "throughput"
        ~header:
          [ "scheme"; "domains"; "pairs"; "knobs_on_routes_per_s";
            "knobs_off_routes_per_s"; "parallel_routes_per_s"; "identical";
            "knobs_on_words_per_route"; "knobs_off_words_per_route";
            "hops_per_route" ]
        [ e.Catalog.id; string_of_int domains; string_of_int npairs;
          Printf.sprintf "%.1f" (rate t_on); Printf.sprintf "%.1f" (rate t_off);
          Printf.sprintf "%.1f" (rate t_p); string_of_bool identical;
          Printf.sprintf "%.1f" w_on; Printf.sprintf "%.1f" w_off;
          Printf.sprintf "%.3f" hops ])
    Catalog.all;
  Printf.printf "%s\n" (String.make 98 '-');
  Printf.printf "identical stats across planes: %s\n"
    (if !all_identical then "ok" else "VIOLATED");
  Printf.printf "knobs-off >= knobs-on routes/sec: %s\n"
    (if !all_dominate then "ok" else "VIOLATED");
  Printf.printf "knobs-off <= knobs-on words/route: %s\n"
    (if !all_lighter then "ok" else "VIOLATED")

(* ------------------------------------------------------------------ *)
(* Snapshot: versioned binary persistence vs rebuilding                *)
(* ------------------------------------------------------------------ *)

let snapshot_csv_header =
  [ "scheme"; "n"; "m"; "build_s"; "encode_s"; "load_verified_s";
    "load_mmap_s"; "speedup_mmap"; "file_bytes"; "bits_per_vertex";
    "bhv_floor_bits_per_vertex"; "identical"; "reuse_identical" ]

let section_snapshot () =
  banner "[snapshot] Binary snapshots: encode/load walls, bits/vertex vs BHV";
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cr-snapshot-bench-%d" (Unix.getpid ()))
  in
  let fresh_dir = dir ^ "-fresh" in
  List.iter
    (fun d -> try Unix.mkdir d 0o755 with Unix.Unix_error _ -> ())
    [ dir; fresh_dir ];
  Printf.printf
    "Each scheme is built cold, encoded to a versioned snapshot, and loaded\n\
     back twice: once with the full per-blob checksum pass (load-v) and\n\
     once trusting the header checksums only (load-m), which is the mmap\n\
     zero-copy path — plane pages fault in on first touch. Loaded\n\
     instances must answer the sampled probes bit-identically to the\n\
     fresh build. bits/v is the whole file over the vertex count; the\n\
     Buhrman-Hoepman-Vitanyi floor for shortest-path (stretch-1) routing\n\
     on almost all graphs is Theta(n^2) total bits, i.e. n bits/vertex —\n\
     the xBHV column is how far under (or over) that floor each\n\
     stretch>1 scheme lands. The save follows the build on the same\n\
     substrate handle and freezes the state that build made, so enc-s is\n\
     the encode alone; reuse says whether a second save of the scheme on\n\
     a fresh handle, which preprocesses again, wrote the same bytes.\n";
  let bench_tier ~label ~schemes ~sources ~per_source g =
    Format.printf "\n-- %s: %a@." label Graph.pp g;
    let n = Graph.n g in
    let pairs = Workload.sampled_pairs ~seed:7 ~sources ~per_source g in
    let bhv_floor = float_of_int n in
    Printf.printf "%-12s %8s %8s %8s %8s %9s %11s %9s %7s %6s %6s\n" "scheme"
      "build-s" "enc-s" "load-v" "load-m" "speedup" "file-B" "bits/v" "xBHV"
      "ident" "reuse";
    Printf.printf "%s\n" (String.make 103 '-');
    let best = ref None in
    List.iter
      (fun id ->
        let e = Option.get (Catalog.find id) in
        (* A fresh substrate per scheme: the build wall is the cold
           preprocessing cost a restart pays today. The save after it
           freezes the state that build left in the handle's last-build
           slot, so its wall (enc-s) is the encode cost alone: freeze,
           marshal, checksum and write. *)
        let substrate = Substrate.create g in
        let (fresh, _), t_build =
          wall (fun () -> e.Catalog.build ~substrate ~seed:31 ~eps:0.5 g)
        in
        let saved, t_save =
          wall (fun () ->
              Catalog.save_entry ~substrate ~dir ~seed:31 ~eps:0.5 g e)
        in
        match saved with
        | Error err ->
          Printf.printf "%-12s save FAILED: %s\n%!" id
            (Snapshot.error_to_string err)
        | Ok path ->
          let bytes = (Unix.stat path).Unix.st_size in
          let load verify =
            wall (fun () ->
                Catalog.load_entry ~verify ~path ~seed:31 ~eps:0.5 g e)
          in
          (match (load true, load false) with
          | (Ok (iv, _), t_v), (Ok (im, _), t_m) ->
            let ev_f = Scheme.evaluate_sampled fresh pairs in
            let ident =
              Scheme.evaluate_sampled iv pairs = ev_f
              && Scheme.evaluate_sampled im pairs = ev_f
            in
            (* The reuse path must write what a save with no build before
               it writes: save again on a fresh handle, into the sibling
               directory, and compare the files' digests. *)
            let reuse_same =
              match
                Catalog.save_entry ~substrate:(Substrate.create g)
                  ~dir:fresh_dir ~seed:31 ~eps:0.5 g e
              with
              | Ok fresh_path -> Digest.file fresh_path = Digest.file path
              | Error _ -> false
            in
            let speedup = t_build /. Float.max t_m 1e-9 in
            let bits_pv = 8.0 *. float_of_int bytes /. float_of_int n in
            (match !best with
            | Some (_, s) when s >= speedup -> ()
            | _ -> best := Some (id, speedup));
            Printf.printf
              "%-12s %8.2f %8.2f %8.3f %8.3f %8.0fx %11d %9.0f %6.2fx %6s %6s\n%!"
              id t_build t_save t_v t_m speedup bytes bits_pv
              (bits_pv /. bhv_floor)
              (if ident then "true" else "VIOLATED")
              (if reuse_same then "same" else "VIOLATED");
            csv "snapshot" ~header:snapshot_csv_header
              [ id; string_of_int n; string_of_int (Graph.m g);
                Printf.sprintf "%.4f" t_build; Printf.sprintf "%.4f" t_save;
                Printf.sprintf "%.4f" t_v; Printf.sprintf "%.4f" t_m;
                Printf.sprintf "%.1f" speedup; string_of_int bytes;
                Printf.sprintf "%.1f" bits_pv;
                Printf.sprintf "%.1f" bhv_floor; string_of_bool ident;
                string_of_bool reuse_same ]
          | ((Error err, _), _ | _, (Error err, _)) ->
            Printf.printf "%-12s load FAILED: %s\n%!" id
              (Snapshot.error_to_string err)))
      schemes;
    Printf.printf "%s\n" (String.make 103 '-');
    !best
  in
  (* Small tier: the whole catalog on the canonical suite graph. *)
  ignore
    (bench_tier ~label:"whole catalog" ~schemes:(Catalog.ids ())
       ~sources:(if quick then 8 else 32)
       ~per_source:(if quick then 8 else 16)
       (er_graph ~seed:42 ()));
  (* Scale tier: the schemes whose substrates go lazy past CR_RT_LAZY_N —
     there the snapshot is blob-dominated and the mmap load is what a
     server starting cold pays. The quick run's n sits under the default
     threshold (10^4), so unless CR_RT_LAZY_N is set the tier lowers the
     threshold below its n while it runs: both runs save lazy-regime
     files. The label names the mode the schemes resolve to. *)
  let big_n = if quick then 2_000 else 20_000 in
  let big_g, t_gen =
    wall (fun () ->
        Graph.pack ~float32:true (Generators.power_law ~seed:91 big_n))
  in
  Printf.printf "\n(power-law scale graph generated in %.1fs)\n" t_gen;
  let lower =
    match Sys.getenv_opt "CR_RT_LAZY_N" with
    | None | Some "" -> true
    | Some _ -> false
  in
  if lower then Unix.putenv "CR_RT_LAZY_N" (string_of_int (big_n / 2));
  let best =
    Fun.protect ~finally:(fun () ->
        if lower then Unix.putenv "CR_RT_LAZY_N" "")
    @@ fun () ->
    let mode =
      match Scheme_util.resolve_mode `Auto big_n with
      | `Lazy -> "lazy"
      | `Eager -> "eager"
    in
    bench_tier
      ~label:(Printf.sprintf "scale tier, n=%d, %s mode" big_n mode)
      ~schemes:[ "tz-k3"; "rt-5eps"; "rt-4km7-k3" ]
      ~sources:(if quick then 8 else 16)
      ~per_source:8 big_g
  in
  (* The headline check: at the largest benched size, reloading the
     catalog must beat re-running preprocessing by two orders of
     magnitude. Sizes under the lazy-store threshold build in
     milliseconds and cannot show the effect, so the quick run reports
     the ratio without judging it. *)
  (match best with
  | Some (id, s) when big_n >= 10_000 ->
    Printf.printf "\ncold load >= 100x faster than rebuild at n=%d: %s (%s: %.0fx)\n"
      big_n
      (if s >= 100.0 then "ok" else "VIOLATED")
      id s
  | Some (id, s) ->
    Printf.printf
      "\ncold-load speedup at n=%d: %.0fx (%s) — informational; the 100x \
       check needs the full run's scale tier\n"
      big_n s id
  | None -> Printf.printf "\ncold-load speedup: no scheme completed\n");
  (* The snapshots are multi-GB at the scale tier; drop them before the
     next section runs. *)
  List.iter
    (fun d ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
        (Sys.readdir d);
      try Unix.rmdir d with Unix.Unix_error _ -> ())
    [ dir; fresh_dir ]

(* ------------------------------------------------------------------ *)
(* Serve: sustained open-loop load over the whole catalog              *)
(* ------------------------------------------------------------------ *)

let section_serve () =
  banner "[serve] Open-loop Zipf traffic over the catalog, with fault churn";
  let domains = Pool.domains (Pool.default ()) in
  let g = er_graph ~seed:53 () in
  let apsp = Apsp.compute ~caller:"[serve] oracle" g in
  let budget = if quick then 6_000 else 60_000 in
  let every = budget / 4 in
  let traffic = Traffic.create ~zipf:1.0 ~seed:61 ~n:(Graph.n g) () in
  let churn =
    Traffic.churn_cycle g ~seed:62 ~every ~budget ~link_rate:0.02
      ~vertex_rate:0.0
  in
  let substrate = Substrate.create g in
  let instances =
    List.map
      (fun (e : Catalog.entry) ->
        fst (e.Catalog.build ~substrate ~seed:33 ~eps:0.5 g))
      Catalog.all
  in
  Format.printf
    "Graph %a; %d queries round-robin over %d schemes; %d domain(s).@."
    Graph.pp g budget (List.length instances) domains;
  Printf.printf
    "Unpaced (capacity measurement); churn every %d queries (link 2%%).\n\n"
    every;
  let was = Telemetry.enabled () in
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled was) @@ fun () ->
  Telemetry.reset ();
  Telemetry.set_enabled true;
  let report =
    Traffic.serve ~churn ~pace:false traffic ~budget ~instances ~apsp
  in
  Telemetry.set_enabled false;
  let pct p =
    match List.assoc_opt "route" (Telemetry.histograms ()) with
    | Some h -> 1e6 *. Telemetry.Histogram.percentile h p
    | None -> 0.0
  in
  let p50 = pct 0.50 and p90 = pct 0.90 and p99 = pct 0.99 in
  (* The serve loop's chunked evals must match one batch per segment bit
     for bit — same identity the CLI and the traffic tests pin. *)
  let all_identical = ref true in
  Printf.printf "%-20s %9s %10s %9s %10s\n" "scheme" "routed" "delivered"
    "segments" "identical";
  Printf.printf "%s\n" (String.make 64 '-');
  List.iter
    (fun (s : Traffic.served) ->
      let ev =
        Scheme.concat_evals
          (List.map (fun (sg : Traffic.segment) -> sg.Traffic.eval)
             s.Traffic.segments)
      in
      let routed =
        List.fold_left
          (fun a (sg : Traffic.segment) -> a + List.length sg.Traffic.pairs)
          0 s.Traffic.segments
      in
      let identical =
        List.for_all
          (fun (sg : Traffic.segment) ->
            Scheme.evaluate_batch ?faults:sg.Traffic.plan ~fast:true
              s.Traffic.instance apsp sg.Traffic.pairs
            = sg.Traffic.eval)
          s.Traffic.segments
      in
      if not identical then all_identical := false;
      Printf.printf "%-20s %9d %9.1f%% %9d %10s\n%!"
        s.Traffic.instance.Scheme.name routed
        (100.0 *. Scheme.delivery_rate ev)
        (List.length s.Traffic.segments)
        (string_of_bool identical);
      csv "serve"
        ~header:
          [ "scheme"; "domains"; "routed"; "delivered_rate"; "segments";
            "identical"; "rps"; "p50_us"; "p90_us"; "p99_us" ]
        [ s.Traffic.instance.Scheme.name; string_of_int domains;
          string_of_int routed;
          Printf.sprintf "%.4f" (Scheme.delivery_rate ev);
          string_of_int (List.length s.Traffic.segments);
          string_of_bool identical;
          Printf.sprintf "%.1f" report.Traffic.rps;
          Printf.sprintf "%.2f" p50; Printf.sprintf "%.2f" p90;
          Printf.sprintf "%.2f" p99 ])
    report.Traffic.served;
  Printf.printf "%s\n" (String.make 64 '-');
  Printf.printf "sustained: %.0f routes/s over %.2fs wall\n" report.Traffic.rps
    report.Traffic.wall;
  Printf.printf "route latency: p50 %.2fus  p90 %.2fus  p99 %.2fus\n" p50 p90
    p99;
  Printf.printf "verdicts: %s\n"
    (String.concat "  "
       (List.filter_map
          (fun (name, c) ->
            if c > 0 then Some (Printf.sprintf "%s=%d" name c) else None)
          report.Traffic.verdicts));
  Printf.printf "serve == evaluate_batch per segment: %s\n"
    (if !all_identical then "ok" else "VIOLATED")

(* ------------------------------------------------------------------ *)
(* Repair: incremental churn repair vs full rebuild                    *)
(* ------------------------------------------------------------------ *)

let repair_csv_header =
  [ "phase"; "delta_ops"; "incremental_s"; "full_s"; "reused"; "dropped";
    "identical"; "stale_queries"; "stale_delivery_rate" ]

let section_repair () =
  banner "[repair] Incremental churn repair vs full rebuild";
  let g = er_graph ~seed:56 () in
  let entries = Catalog.all in
  let seed = 33 and eps = 0.5 in
  (* Warm substrate: the state a long-running server is in when churn
     arrives — every repair below starts from these caches. *)
  let substrate = Substrate.create g in
  let instances =
    timed "warm catalog build" (fun () ->
        List.map
          (fun (e : Catalog.entry) ->
            fst (e.Catalog.build ~substrate ~seed ~eps g))
          entries)
  in
  let pairs_n = if quick then 200 else 500 in
  Format.printf
    "Graph %a; %d schemes rebuilt per repair; identity checked over %d\n\
     routed pairs on the post-delta graph. Small deltas must come out\n\
     cheaper on the dirty-region path than a cold rebuild; the answers\n\
     must be bit-identical either way.@."
    Graph.pp g (List.length entries) pairs_n;
  Printf.printf "\n%-10s %12s %10s %8s %8s %8s %10s\n" "delta-ops"
    "incremental-s" "full-s" "speedup" "reused" "dropped" "identical";
  Printf.printf "%s\n" (String.make 72 '-');
  let all_identical = ref true and small_faster = ref true in
  (* Each side's wall is its fastest of five runs from the same warm
     handle ([Catalog.repair] leaves it as it was, so every run does the
     same work). Each run starts on a settled heap and the side that
     runs first alternates, so neither GC debt nor run order favours a
     side in the 1-op check. *)
  let replays = 5 in
  let faster (a : Catalog.repaired) (b : Catalog.repaired) =
    if b.Catalog.wall < a.Catalog.wall then b else a
  in
  List.iter
    (fun size ->
      let ops = Delta.random ~seed:(90 + size) ~size g in
      let repair force_full =
        Gc.full_major ();
        Catalog.repair ~force_full ~entries ~substrate ~seed ~eps ops
      in
      let inc = ref (repair false) in
      let full = ref (repair true) in
      for round = 2 to replays do
        let full_first = round land 1 = 0 in
        let a = repair full_first in
        let b = repair (not full_first) in
        let f, i = if full_first then (a, b) else (b, a) in
        full := faster !full f;
        inc := faster !inc i
      done;
      let inc = !inc and full = !full in
      let apsp' = Apsp.compute ~caller:"[repair] identity oracle" inc.Catalog.graph in
      let pairs =
        Scheme.sample_pairs ~seed:35 ~n:(Graph.n g) ~count:pairs_n
      in
      let identical =
        List.for_all2
          (fun (_, i1, (_ : float * float)) (_, i2, _) ->
            Scheme.evaluate_batch ~fast:true i1 apsp' pairs
            = Scheme.evaluate_batch ~fast:true i2 apsp' pairs)
          inc.Catalog.instances full.Catalog.instances
      in
      let reused, dropped =
        match inc.Catalog.invalidation with
        | Some inv -> (Substrate.reused inv, Substrate.dropped inv)
        | None -> (0, 0)
      in
      if not identical then all_identical := false;
      if size = 1 && inc.Catalog.wall >= full.Catalog.wall then
        small_faster := false;
      Printf.printf "%-10d %12.3f %10.3f %7.2fx %8d %8d %10s\n%!"
        (List.length ops) inc.Catalog.wall full.Catalog.wall
        (full.Catalog.wall /. Float.max inc.Catalog.wall 1e-9)
        reused dropped
        (if identical then "true" else "VIOLATED");
      csv "repair" ~header:repair_csv_header
        [ "latency"; string_of_int (List.length ops);
          Printf.sprintf "%.4f" inc.Catalog.wall;
          Printf.sprintf "%.4f" full.Catalog.wall; string_of_int reused;
          string_of_int dropped; string_of_bool identical; "0"; "" ])
    [ 1; 8; 64 ];
  Printf.printf "incremental == full rebuild (routed answers): %s\n"
    (if !all_identical then "ok" else "VIOLATED");
  Printf.printf "1-op delta beats full rebuild: %s\n"
    (if !small_faster then "ok" else "VIOLATED");
  (* --- delivery during repair ---------------------------------------- *)
  let budget = if quick then 2_000 else 8_000 in
  let every = budget / 3 in
  Printf.printf
    "\nServe with topology churn: %d unpaced queries, a %d-op delta every\n\
     %d queries. Queries landing inside a repair window are answered on\n\
     the +res-wrapped old tables; delivery must never reach zero.\n\n"
    budget 8 every;
  let traffic = Traffic.create ~zipf:1.0 ~seed:61 ~n:(Graph.n g) () in
  let topo = Traffic.topo_cycle ~seed:63 ~every ~budget ~ops:8 in
  let cur_sub = ref substrate in
  let repairer _g ops =
    let r = Catalog.repair ~entries ~substrate:!cur_sub ~seed ~eps ops in
    cur_sub := r.Catalog.substrate;
    let reused, dropped =
      match r.Catalog.invalidation with
      | Some inv -> (Substrate.reused inv, Substrate.dropped inv)
      | None -> (0, 0)
    in
    {
      Traffic.sw_graph = r.Catalog.graph;
      sw_instances = List.map (fun (_, i, _) -> i) r.Catalog.instances;
      sw_apsp = Apsp.compute ~caller:"[repair] serve oracle" r.Catalog.graph;
      sw_wall = r.Catalog.wall;
      sw_full_rebuild = r.Catalog.full_rebuild;
      sw_reused = reused;
      sw_dropped = dropped;
    }
  in
  let apsp = Apsp.compute ~caller:"[repair] oracle" g in
  (* chunk 16: the unpaced staleness window is one round of chunks across
     the instances, so the default 256 would swallow the whole budget. *)
  let report =
    Traffic.serve ~topo ~repairer ~chunk:16 ~pace:false traffic ~budget
      ~instances ~apsp
  in
  Printf.printf "%-5s %8s %10s %10s %8s %10s\n" "epoch" "start" "repair-s"
    "blackout-s" "stale-q" "stale-del%";
  Printf.printf "%s\n" (String.make 58 '-');
  (* Sustained delivery means: at least one repair actually had queries in
     flight, and every such staleness window delivered something. *)
  let delivered_during = ref true and any_stale = ref false in
  List.iter
    (fun (ep : Traffic.epoch) ->
      let stale_del =
        match ep.Traffic.stale_eval with
        | Some ev -> Some (Scheme.delivery_rate ev)
        | None -> None
      in
      if ep.Traffic.index > 0 && ep.Traffic.stale_queries > 0 then begin
        any_stale := true;
        match stale_del with
        | Some r -> if r <= 0.0 then delivered_during := false
        | None -> delivered_during := false
      end;
      Printf.printf "%-5d %8d %10.3f %10.3f %8d %10s\n" ep.Traffic.index
        ep.Traffic.started_at ep.Traffic.repair_wall ep.Traffic.blackout
        ep.Traffic.stale_queries
        (match stale_del with
        | Some r -> Printf.sprintf "%.1f%%" (100.0 *. r)
        | None -> "-");
      csv "repair" ~header:repair_csv_header
        [ "serve-epoch"; string_of_int (List.length ep.Traffic.ops);
          Printf.sprintf "%.4f" ep.Traffic.repair_wall;
          Printf.sprintf "%.4f" ep.Traffic.blackout;
          string_of_int ep.Traffic.reused; string_of_int ep.Traffic.dropped;
          string_of_bool (not ep.Traffic.full_rebuild);
          string_of_int ep.Traffic.stale_queries;
          (match stale_del with
          | Some r -> Printf.sprintf "%.4f" r
          | None -> "") ])
    report.Traffic.epochs;
  Printf.printf "routed %d queries (%d stale) at %.0f routes/s\n"
    report.Traffic.routed
    (List.fold_left
       (fun a (ep : Traffic.epoch) -> a + ep.Traffic.stale_queries)
       0 report.Traffic.epochs)
    report.Traffic.rps;
  Printf.printf "delivery sustained through every repair window: %s\n"
    (if !delivered_during && !any_stale then "ok" else "VIOLATED")

(* ------------------------------------------------------------------ *)
(* Telemetry: disabled-mode overhead must stay under 5%                *)
(* ------------------------------------------------------------------ *)

(* Cost of one disabled instrumentation point, by differencing two tight
   loops: one that tests the telemetry flag, one that tests an opaque
   constant. [Sys.opaque_identity] pins both loads so neither test is
   hoisted or folded away. *)
let guard_cost_ns () =
  let iters = 20_000_000 in
  let baseline () =
    let acc = ref 0 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      if Sys.opaque_identity false then incr acc
    done;
    ignore (Sys.opaque_identity !acc);
    Unix.gettimeofday () -. t0
  in
  let guarded () =
    let acc = ref 0 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      if !(Sys.opaque_identity Telemetry.on) then incr acc
    done;
    ignore (Sys.opaque_identity !acc);
    Unix.gettimeofday () -. t0
  in
  (* Interleaved best-of-3 of each, so a scheduler hiccup cannot skew one
     side of the difference. *)
  let best f = Float.min (f ()) (Float.min (f ()) (f ())) in
  let tb = best baseline and tg = best guarded in
  Float.max 0.0 (1e9 *. (tg -. tb) /. float_of_int iters)

let section_telemetry () =
  banner "[telemetry] Disabled-mode overhead of the instrumentation layer";
  let was = Telemetry.enabled () in
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled was) @@ fun () ->
  Telemetry.set_enabled false;
  let g = er_graph ~seed:51 () in
  let apsp = Apsp.compute ~caller:"[telemetry] oracle" g in
  let n = Graph.n g in
  let count = if quick then 2000 else 6000 in
  let pairs = Scheme.sample_pairs ~seed:29 ~n ~count in
  let npairs = List.length pairs in
  let pool = Pool.create ~domains:1 () in
  let e = Option.get (Catalog.find "tz-k2") in
  let inst, _ = e.Catalog.build ~seed:33 ~eps:0.5 g in
  let best f =
    let ev, t0 = wall f in
    let t = ref t0 in
    for _ = 2 to 3 do
      let _, ti = wall f in
      if ti < !t then t := ti
    done;
    (ev, !t)
  in
  let batch () = Scheme.evaluate_batch ~pool inst apsp pairs in
  let ev_off, t_off = best batch in
  Telemetry.reset ();
  Telemetry.set_enabled true;
  let ev_on, t_on = best batch in
  Telemetry.set_enabled false;
  let totals = Telemetry.totals () in
  let runs = 3 in
  Printf.printf
    "Knobs-off batch of %d pairs (tz-k2, 1 domain), telemetry off vs on.\n\
     Disabled overhead is estimated per route as (guard checks) x (measured\n\
     cost of one flag test) against the per-route wall time, because the\n\
     disabled layer IS just flag tests: no shard fetch, no allocation.\n\n"
    npairs;
  Printf.printf "%-34s %12.0f routes/s\n" "telemetry off"
    (float_of_int npairs /. Float.max t_off 1e-9);
  Printf.printf "%-34s %12.0f routes/s  (enabled/disabled %.3fx)\n"
    "telemetry on"
    (float_of_int npairs /. Float.max t_on 1e-9)
    (t_on /. Float.max t_off 1e-9);
  let identical = ev_on = ev_off in
  Printf.printf "eval identical on vs off: %s\n"
    (if identical then "ok" else "VIOLATED");
  (* Counter sanity from the enabled runs: every routed pair is one route,
     and every route left one span in the "route" histogram. *)
  let routes_ok = totals.Telemetry.routes = runs * npairs in
  Printf.printf "routes counter == %d runs x %d pairs: %s\n" runs npairs
    (if routes_ok then "ok" else "VIOLATED");
  let route_hist_n =
    match List.assoc_opt "route" (Telemetry.histograms ()) with
    | Some h -> Telemetry.Histogram.count h
    | None -> 0
  in
  let hist_ok = route_hist_n = totals.Telemetry.routes in
  Printf.printf "route histogram count == routes counter: %s\n"
    (if hist_ok then "ok" else "VIOLATED");
  let avg_hops =
    float_of_int totals.Telemetry.hops /. float_of_int (max 1 totals.Telemetry.routes)
  in
  let guard_ns = guard_cost_ns () in
  (* Port_model tests [telon] twice per hop (hop counter + table lookup)
     plus a handful of per-run points (entry, verdict, trace gate, the
     Scheme wrapper); 2h + 6 over-counts slightly, which only makes the
     bound harsher. *)
  let guards_per_route = (2.0 *. avg_hops) +. 6.0 in
  let per_route_s = t_off /. float_of_int npairs in
  let overhead =
    guards_per_route *. guard_ns *. 1e-9 /. Float.max per_route_s 1e-12
  in
  Printf.printf
    "\nflag test: %.3f ns; avg hops/route: %.2f; guard checks/route: %.1f\n"
    guard_ns avg_hops guards_per_route;
  Printf.printf "per-route wall (off): %.0f ns\n" (1e9 *. per_route_s);
  let ok = overhead < 0.05 in
  Printf.printf "estimated disabled-mode overhead: %.3f%% (budget 5%%): %s\n"
    (100.0 *. overhead)
    (if ok then "ok" else "VIOLATED");
  csv "telemetry"
    ~header:
      [ "pairs"; "off_routes_per_s"; "on_routes_per_s"; "guard_ns";
        "avg_hops"; "overhead_pct"; "identical"; "overhead_ok" ]
    [ string_of_int npairs;
      Printf.sprintf "%.1f" (float_of_int npairs /. Float.max t_off 1e-9);
      Printf.sprintf "%.1f" (float_of_int npairs /. Float.max t_on 1e-9);
      Printf.sprintf "%.4f" guard_ns; Printf.sprintf "%.3f" avg_hops;
      Printf.sprintf "%.4f" (100.0 *. overhead); string_of_bool identical;
      string_of_bool ok ]

let () =
  Printf.printf "compact-routing benchmark harness%s (%d domain(s))\n"
    (if quick then " (quick mode)" else "")
    (Pool.domains (Pool.default ()));
  let run name f =
    match only_sections with
    | Some names when not (List.mem name names) -> ()
    | _ -> timed name f
  in
  (* [Fun.protect] so the CSV channels are flushed and closed even when a
     scheme raises mid-run — a crash used to silently truncate every
     CR_BENCH_CSV file buffered so far. *)
  Fun.protect ~finally:csv_close (fun () ->
      run "construction" section_construction;
      run "scale" section_scale;
      run "table1" section_table1;
      run "throughput" section_throughput;
      run "snapshot" section_snapshot;
      run "serve" section_serve;
      run "repair" section_repair;
      run "telemetry" section_telemetry;
      run "families" section_families;
      run "oracles" section_oracles;
      run "space-scaling" section_space_scaling;
      run "space-breakdown" section_space_breakdown;
      run "eps-sweep" section_eps_sweep;
      run "stretch-by-distance" section_stretch_by_distance;
      run "lemma7" section_lemma7;
      run "lemma8" section_lemma8;
      run "ell-sweep" section_ell_sweep;
      run "k-sweep" section_k_sweep;
      run "label-bits" section_label_bits;
      run "spanner" section_spanner;
      run "resilience" section_resilience;
      run "bechamel" section_bechamel);
  (match csv_dir with
  | Some dir -> Printf.printf "\nCSV mirrors written under %s/\n" dir
  | None -> ());
  Printf.printf "\nAll experiment sections completed.\n"
