(* Command-line interface: generate graphs, inspect schemes, route
   messages, and print the Table 1 reproduction on demand. *)
open Cmdliner
open Cr_graph
open Cr_routing
open Cr_core

(* ------------------------------------------------------------------ *)
(* Shared argument definitions                                         *)
(* ------------------------------------------------------------------ *)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let eps_arg =
  Arg.(
    value
    & opt float 0.5
    & info [ "eps" ] ~docv:"EPS" ~doc:"Stretch slack parameter eps.")

let graph_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "graph"; "g" ] ~docv:"FILE" ~doc:"Graph file (see $(b,generate)).")

let scheme_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "scheme"; "s" ] ~docv:"ID"
        ~doc:"Scheme id; run $(b,cr_cli schemes) for the list.")

(* A strictly positive integer. A bad value is a usage error that names
   the flag, not an exception out of the command body. *)
let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some v when v > 0 -> Ok v
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let domains_arg =
  Arg.(
    value
    & opt pos_int (Pool.domains (Pool.default ()))
    & info [ "domains" ] ~docv:"D"
        ~doc:"Domain-pool width for batched routing.")

let load_graph path =
  try Ok (Graph_io.load path) with Failure m -> Error m

let build_scheme ~seed ~eps id g =
  match Catalog.find id with
  | None ->
    Error
      (Printf.sprintf "unknown scheme %S; known: %s" id
         (String.concat ", " (Catalog.ids ())))
  | Some e ->
    if (not e.Catalog.weighted_ok) && not (Graph.is_unit_weighted g) then
      Error (Printf.sprintf "scheme %s requires an unweighted graph" id)
    else begin
      try Ok (e, e.Catalog.build ~seed ~eps g)
      with Invalid_argument m -> Error m
    end

let or_die = function
  | Ok v -> v
  | Error m ->
    Printf.eprintf "error: %s\n" m;
    exit 1

(* ------------------------------------------------------------------ *)
(* generate                                                            *)
(* ------------------------------------------------------------------ *)

let family_conv =
  let families =
    [ "path"; "cycle"; "grid"; "torus"; "hypercube"; "tree"; "gnp"; "gnm";
      "ba"; "caveman"; "power-law"; "glp" ]
  in
  Arg.enum (List.map (fun f -> (f, f)) families)

let generate family n seed weights out =
  let g =
    match family with
    | "path" -> Generators.path n
    | "cycle" -> Generators.cycle n
    | "grid" ->
      let s = max 1 (int_of_float (sqrt (float_of_int n))) in
      Generators.grid s s
    | "torus" ->
      let s = max 3 (int_of_float (sqrt (float_of_int n))) in
      Generators.torus s s
    | "hypercube" ->
      let d = max 1 (int_of_float (log (float_of_int n) /. log 2.0)) in
      Generators.hypercube d
    | "tree" -> Generators.random_tree ~seed n
    | "gnp" ->
      Generators.connect ~seed
        (Generators.gnp ~seed n (Float.min 1.0 (6.0 /. float_of_int n)))
    | "gnm" -> Generators.connect ~seed (Generators.gnm ~seed n (3 * n))
    | "ba" -> Generators.barabasi_albert ~seed n 3
    | "caveman" ->
      Generators.caveman ~seed ~cliques:(max 2 (n / 16)) ~size:16 ~rewire:0.1
    | "power-law" -> Generators.power_law ~seed n
    | "glp" -> Generators.glp ~seed n
    | _ -> assert false
  in
  let g =
    match weights with
    | None -> g
    | Some (lo, hi) -> Generators.with_random_weights ~seed ~lo ~hi g
  in
  (match out with
  | None -> print_string (Graph_io.to_string g)
  | Some path ->
    Graph_io.save g path;
    Format.printf "wrote %s: %a@." path Graph.pp g);
  0

let generate_cmd =
  let family =
    Arg.(
      value
      & opt family_conv "gnp"
      & info [ "family"; "f" ] ~docv:"FAMILY" ~doc:"Graph family.")
  in
  let n =
    Arg.(value & opt pos_int 256 & info [ "n" ] ~docv:"N" ~doc:"Vertex count.")
  in
  let weights =
    Arg.(
      value
      & opt (some (pair ~sep:',' float float)) None
      & info [ "weights"; "w" ] ~docv:"LO,HI"
          ~doc:"Draw edge weights uniformly from [LO,HI].")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Output file (default stdout).")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic graph")
    Term.(const generate $ family $ n $ seed_arg $ weights $ out)

(* ------------------------------------------------------------------ *)
(* schemes                                                             *)
(* ------------------------------------------------------------------ *)

let schemes () =
  Printf.printf "%-16s %-12s %-16s %s\n" "id" "stretch" "space/vertex" "source";
  Printf.printf "%s\n" (String.make 76 '-');
  List.iter
    (fun (e : Catalog.entry) ->
      Printf.printf "%-16s %-12s %-16s %s%s\n" e.Catalog.id
        e.Catalog.paper_stretch e.Catalog.paper_space e.Catalog.source
        (if e.Catalog.weighted_ok then "" else "  [unweighted only]"))
    Catalog.all;
  0

let schemes_cmd =
  Cmd.v
    (Cmd.info "schemes" ~doc:"List the available routing schemes")
    Term.(const schemes $ const ())

(* ------------------------------------------------------------------ *)
(* route                                                               *)
(* ------------------------------------------------------------------ *)

let route graph_file scheme src dst seed eps verbose =
  let g = or_die (load_graph graph_file) in
  let _e, (inst, (alpha, beta)) = or_die (build_scheme ~seed ~eps scheme g) in
  if src < 0 || src >= Graph.n g || dst < 0 || dst >= Graph.n g then begin
    Printf.eprintf "error: endpoints must be in [0, %d)\n" (Graph.n g);
    exit 1
  end;
  let o = Scheme.route inst ~src ~dst in
  let d = (Dijkstra.spt g src).Dijkstra.dist.(dst) in
  Printf.printf "path: %s\n"
    (String.concat " -> " (List.map string_of_int o.Port_model.path));
  if verbose then begin
    (* Per-hop view: the port each vertex used and the link weight. *)
    let rec hops = function
      | u :: (v :: _ as rest) ->
        let p = Option.get (Graph.port_to g u v) in
        Printf.printf "  at %4d: port %2d -> %4d (weight %g)\n" u p v
          (Graph.port_weight g u p);
        hops rest
      | _ -> ()
    in
    hops o.Port_model.path
  end;
  let ok = Port_model.delivered_to o dst in
  Printf.printf "verdict: %s%s  hops: %d  length: %g  distance: %g\n"
    (Format.asprintf "%a" Port_model.pp_verdict o.Port_model.verdict)
    (if (Port_model.delivered o) && not ok then
       Printf.sprintf " at vertex %d, not the destination" o.Port_model.final
     else "")
    o.Port_model.hops o.Port_model.length d;
  if ok && d > 0.0 && d < infinity then
    Printf.printf "stretch: %.4f (guarantee: length <= %.3f*d + %g)\n"
      (o.Port_model.length /. d) alpha beta;
  Printf.printf "peak header: %d words\n" o.Port_model.header_words_peak;
  (* A message that did not arrive at its destination is a failure, even if
     some buggy table said Deliver elsewhere: scripts must see a nonzero. *)
  if ok then 0 else 1

let route_cmd =
  let src = Arg.(required & opt (some int) None & info [ "src" ] ~docv:"U") in
  let dst = Arg.(required & opt (some int) None & info [ "dst" ] ~docv:"V") in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print every hop with its port.")
  in
  Cmd.v
    (Cmd.info "route" ~doc:"Route one message and print the simulated path")
    Term.(
      const route $ graph_arg $ scheme_arg $ src $ dst $ seed_arg $ eps_arg
      $ verbose)

(* ------------------------------------------------------------------ *)
(* trace                                                               *)
(* ------------------------------------------------------------------ *)

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let fault_plan g ~fault_seed ~rate ~vertex_rate =
  if rate > 0.0 || vertex_rate > 0.0 then
    Some
      (Fault.compile
         (Fault.spec ~seed:fault_seed ~link_failure_rate:rate
            ~vertex_failure_rate:vertex_rate ())
         g)
  else None

let narrate g (e : Telemetry.event) =
  let dest at port =
    if port >= 0 && at >= 0 && at < Graph.n g && port < Graph.degree g at then
      Printf.sprintf " -> %d (weight %g)" (Graph.endpoint g at port)
        (Graph.port_weight g at port)
    else ""
  in
  match e.Telemetry.kind with
  | Telemetry.Hop ->
    Printf.printf "  at %4d: forward via port %d%s  [header %d words]\n"
      e.Telemetry.at e.Telemetry.port
      (dest e.Telemetry.at e.Telemetry.port)
      e.Telemetry.header_words
  | Telemetry.Bounce ->
    Printf.printf "  at %4d: port %d%s is dead, bouncing\n" e.Telemetry.at
      e.Telemetry.port
      (dest e.Telemetry.at e.Telemetry.port)
  | Telemetry.Drop ->
    Printf.printf "  at %4d: message dropped in flight on port %d\n"
      e.Telemetry.at e.Telemetry.port
  | Telemetry.Corrupt ->
    Printf.printf "  at %4d: header corrupted on port %d\n" e.Telemetry.at
      e.Telemetry.port
  | Telemetry.Deliver ->
    Printf.printf "  at %4d: delivered  [header %d words]\n" e.Telemetry.at
      e.Telemetry.header_words
  | Telemetry.Retry ->
    Printf.printf "  at %4d: resilience escape hop via port %d%s\n"
      e.Telemetry.at e.Telemetry.port
      (dest e.Telemetry.at e.Telemetry.port)
  | Telemetry.Detour ->
    Printf.printf "  at %4d: entering spanning-tree detour\n" e.Telemetry.at
  | Telemetry.End v ->
    Printf.printf "  at %4d: run segment ended (%s)\n" e.Telemetry.at v

let trace graph_file scheme src dst seed eps rate vertex_rate fault_seed jsonl =
  let g = or_die (load_graph graph_file) in
  let _e, (inst, (alpha, beta)) = or_die (build_scheme ~seed ~eps scheme g) in
  if src < 0 || src >= Graph.n g || dst < 0 || dst >= Graph.n g then begin
    Printf.eprintf "error: endpoints must be in [0, %d)\n" (Graph.n g);
    exit 1
  end;
  let faults = fault_plan g ~fault_seed ~rate ~vertex_rate in
  Telemetry.reset ();
  let o, events =
    Telemetry.with_trace (fun () -> Scheme.route ?faults inst ~src ~dst)
  in
  Printf.printf "trace %d -> %d (%s%s):\n" src dst scheme
    (match faults with
    | None -> ""
    | Some _ ->
      Printf.sprintf ", faults rate=%g vertex-rate=%g seed=%d" rate vertex_rate
        fault_seed);
  List.iter (narrate g) events;
  let d = (Dijkstra.spt g src).Dijkstra.dist.(dst) in
  let ok = Port_model.delivered_to o dst in
  Printf.printf "verdict: %s%s  hops: %d  length: %g  distance: %g\n"
    (Format.asprintf "%a" Port_model.pp_verdict o.Port_model.verdict)
    (if (Port_model.delivered o) && not ok then
       Printf.sprintf " at vertex %d, not the destination" o.Port_model.final
     else "")
    o.Port_model.hops o.Port_model.length d;
  if ok && d > 0.0 && d < infinity then
    Printf.printf "stretch: %.4f (guarantee: length <= %.3f*d + %g)\n"
      (o.Port_model.length /. d) alpha beta;
  Printf.printf "counters:";
  List.iter
    (fun (nm, v) -> if v <> 0 then Printf.printf " %s=%d" nm v)
    (Telemetry.counter_rows (Telemetry.totals ()));
  print_newline ();
  (match jsonl with
  | None -> ()
  | Some path ->
    let buf = Buffer.create 1024 in
    List.iter
      (fun e ->
        Buffer.add_string buf (Telemetry.event_to_json e);
        Buffer.add_char buf '\n')
      events;
    Buffer.add_string buf (Telemetry.to_jsonl ());
    write_file path (Buffer.contents buf);
    Printf.printf "wrote %s\n" path);
  if ok then 0 else 1

let trace_cmd =
  let src = Arg.(required & pos 0 (some int) None & info [] ~docv:"SRC") in
  let dst = Arg.(required & pos 1 (some int) None & info [] ~docv:"DST") in
  let rate =
    Arg.(
      value & opt float 0.0
      & info [ "rate" ] ~docv:"R" ~doc:"Link failure rate for the traced run.")
  in
  let vertex_rate =
    Arg.(
      value & opt float 0.0
      & info [ "vertex-rate" ] ~docv:"R" ~doc:"Vertex crash rate for the traced run.")
  in
  let fault_seed =
    Arg.(
      value & opt int 1
      & info [ "fault-seed" ] ~docv:"S" ~doc:"Seed of the frozen fault plan.")
  in
  let jsonl =
    Arg.(
      value
      & opt (some string) None
      & info [ "jsonl" ] ~docv:"FILE"
          ~doc:"Also write the trace events and counters as JSON lines.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Route one message with per-hop telemetry narration")
    Term.(
      const trace $ graph_arg $ scheme_arg $ src $ dst $ seed_arg $ eps_arg
      $ rate $ vertex_rate $ fault_seed $ jsonl)

(* ------------------------------------------------------------------ *)
(* stats                                                               *)
(* ------------------------------------------------------------------ *)

let print_telemetry () =
  let totals = Telemetry.totals () in
  Printf.printf "\ntelemetry counters:\n";
  List.iter
    (fun (nm, v) -> if v <> 0 then Printf.printf "  %-16s %12d\n" nm v)
    (Telemetry.counter_rows totals);
  let hists = Telemetry.histograms () in
  if hists <> [] then begin
    Printf.printf "latency histograms (microseconds):\n";
    Printf.printf "  %-12s %9s %11s %11s %11s %11s %11s\n" "name" "count"
      "mean" "p50" "p90" "p99" "max";
    List.iter
      (fun (nm, h) ->
        let us v = 1e6 *. v in
        Printf.printf "  %-12s %9d %11.2f %11.2f %11.2f %11.2f %11.2f\n" nm
          (Telemetry.Histogram.count h)
          (us (Telemetry.Histogram.mean h))
          (us (Telemetry.Histogram.percentile h 0.50))
          (us (Telemetry.Histogram.percentile h 0.90))
          (us (Telemetry.Histogram.percentile h 0.99))
          (us (Telemetry.Histogram.max_value h)))
      hists
  end

let stats graph_file scheme seed eps pairs domains jsonl csv =
  let g = or_die (load_graph graph_file) in
  (* The whole campaign runs with telemetry on — the build lands in the
     "preprocess" histogram, every routed pair in "route" — and the prior
     enabled state is restored before exit so stats composes with traces. *)
  let was = Telemetry.enabled () in
  Telemetry.reset ();
  Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled was) @@ fun () ->
  let e, (inst, (alpha, beta)) = or_die (build_scheme ~seed ~eps scheme g) in
  Printf.printf "scheme: %s (%s)\n" e.Catalog.id e.Catalog.description;
  Format.printf "graph:  %a@." Graph.pp g;
  Printf.printf "tables: max %d words, avg %.1f words, labels max %d words\n"
    (Scheme.max_table_words inst)
    (Scheme.avg_table_words inst)
    (Scheme.max_label_words inst);
  let apsp = Apsp.compute ~caller:(e.Catalog.id ^ " stats oracle") g in
  let sampled = Scheme.sample_pairs ~seed ~n:(Graph.n g) ~count:pairs in
  let pool = Pool.create ~domains () in
  let ev = Scheme.evaluate_batch ~pool inst apsp sampled in
  Printf.printf "routed %d pairs: failures %d, max stretch %.4f, avg %.4f, p99 %.4f\n"
    (Array.length ev.Scheme.samples + ev.Scheme.failures)
    ev.Scheme.failures (Scheme.max_stretch ev) (Scheme.avg_stretch ev)
    (Scheme.percentile_stretch ev 0.99);
  Printf.printf "peak header: %d words\n" ev.Scheme.header_words_peak;
  Printf.printf "guarantee (%.3f, %g): %s\n" alpha beta
    (if Scheme.within ev ~alpha ~beta then "satisfied" else "VIOLATED");
  print_telemetry ();
  (match jsonl with
  | None -> ()
  | Some path ->
    write_file path (Telemetry.to_jsonl ());
    Printf.printf "wrote %s\n" path);
  (match csv with
  | None -> ()
  | Some path ->
    write_file path (Telemetry.to_csv ());
    Printf.printf "wrote %s\n" path);
  if not (Scheme.within ev ~alpha ~beta) then 1 else 0

let stats_cmd =
  let pairs =
    Arg.(
      value & opt int 2000
      & info [ "pairs" ] ~docv:"K" ~doc:"Number of sampled source/target pairs.")
  in
  let jsonl =
    Arg.(
      value
      & opt (some string) None
      & info [ "jsonl" ] ~docv:"FILE"
          ~doc:"Write the campaign's counters and histograms as JSON lines.")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:"Write the campaign's counters and histograms as CSV.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Preprocess a scheme and report space, stretch, and telemetry")
    Term.(
      const stats $ graph_arg $ scheme_arg $ seed_arg $ eps_arg $ pairs
      $ domains_arg $ jsonl $ csv)

(* ------------------------------------------------------------------ *)
(* table1                                                              *)
(* ------------------------------------------------------------------ *)

let table1 n seed eps pairs =
  let g =
    Generators.connect ~seed
      (Generators.gnp ~seed n (Float.min 1.0 (6.0 /. float_of_int n)))
  in
  let gw = Generators.with_random_weights ~seed ~lo:1.0 ~hi:8.0 g in
  Printf.printf "Table 1 reproduction on G(n=%d, m=%d) and a weighted copy.\n\n"
    (Graph.n g) (Graph.m g);
  Printf.printf "%-16s %-11s %-16s %9s %9s %9s %6s\n" "scheme" "paper"
    "space" "max-str" "avg-str" "tbl-max" "ok";
  Printf.printf "%s\n" (String.make 82 '-');
  let apsp = Apsp.compute ~caller:"table1 oracle" g
  and apsp_w = Apsp.compute ~caller:"table1 weighted oracle" gw in
  List.iter
    (fun (e : Catalog.entry) ->
      let graph, oracle = if e.Catalog.weighted_ok then (gw, apsp_w) else (g, apsp) in
      let inst, (alpha, beta) = e.Catalog.build ~seed ~eps graph in
      let sampled = Scheme.sample_pairs ~seed ~n:(Graph.n graph) ~count:pairs in
      let ev = Scheme.evaluate inst oracle sampled in
      Printf.printf "%-16s %-11s %-16s %9.3f %9.3f %9d %6s\n%!" e.Catalog.id
        e.Catalog.paper_stretch e.Catalog.paper_space (Scheme.max_stretch ev)
        (Scheme.avg_stretch ev)
        (Scheme.max_table_words inst)
        (if Scheme.within ev ~alpha ~beta then "ok" else "FAIL"))
    Catalog.all;
  0

let table1_cmd =
  let n = Arg.(value & opt int 256 & info [ "n" ] ~docv:"N") in
  let pairs = Arg.(value & opt int 1000 & info [ "pairs" ] ~docv:"K") in
  Cmd.v
    (Cmd.info "table1" ~doc:"Print the Table 1 reproduction on a random graph")
    Term.(const table1 $ n $ seed_arg $ eps_arg $ pairs)

(* ------------------------------------------------------------------ *)
(* throughput                                                          *)
(* ------------------------------------------------------------------ *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let throughput graph_file scheme seed eps pairs domains =
  let g = or_die (load_graph graph_file) in
  let e, (inst, _) = or_die (build_scheme ~seed ~eps scheme g) in
  let n = Graph.n g in
  let sampled = Scheme.sample_pairs ~seed ~n ~count:pairs in
  let npairs = List.length sampled in
  Printf.printf "scheme: %s (%s)\n" e.Catalog.id e.Catalog.description;
  Format.printf "graph:  %a; %d pairs; %d domain(s)@.@." Graph.pp g npairs
    domains;
  let rate t = float_of_int npairs /. Float.max t 1e-9 in
  let serial route =
    snd
      (wall (fun () ->
           List.iter (fun (u, v) -> ignore (route ~src:u ~dst:v)) sampled))
  in
  let t_on = serial (Scheme.route inst) in
  Printf.printf "%-22s %12.0f routes/s\n%!" "knobs-on serial" (rate t_on);
  let t_off =
    serial (Scheme.route_fast ~record_path:false ~detect_loops:false inst)
  in
  Printf.printf "%-22s %12.0f routes/s  (%.2fx)\n%!" "knobs-off serial"
    (rate t_off)
    (t_on /. Float.max t_off 1e-9);
  (* The batch engine also verifies the merge: its eval must match the
     serial evaluation bit for bit. *)
  let apsp = Apsp.compute ~caller:(e.Catalog.id ^ " throughput oracle") g in
  let ev_serial = Scheme.evaluate inst apsp sampled in
  let pool = Pool.create ~domains () in
  let ev_par, t_p =
    wall (fun () -> Scheme.evaluate_batch ~pool inst apsp sampled)
  in
  Printf.printf "%-22s %12.0f routes/s  (%.2fx)\n" "knobs-off parallel"
    (rate t_p)
    (t_on /. Float.max t_p 1e-9);
  let identical = ev_par = ev_serial in
  Printf.printf "\nbatch eval identical to serial evaluate: %s\n"
    (if identical then "ok" else "VIOLATED");
  if identical then 0 else 1

let throughput_cmd =
  let pairs =
    Arg.(
      value & opt int 5000
      & info [ "pairs" ] ~docv:"K" ~doc:"Number of sampled source/target pairs.")
  in
  Cmd.v
    (Cmd.info "throughput"
       ~doc:
         "Measure routes/sec: serial with path recording and loop detection \
          on, serial with both off, and the parallel batch engine")
    Term.(
      const throughput $ graph_arg $ scheme_arg $ seed_arg $ eps_arg $ pairs
      $ domains_arg)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let us x = 1e6 *. x

(* Scheme-id list -> catalog entries, shared by serve and delta: unknown
   ids and weighted-graph mismatches die with the same message route gives;
   [None] selects every scheme the graph supports. *)
let resolve_entries g = function
  | Some ids ->
    List.map
      (fun id ->
        match Catalog.find id with
        | None ->
          or_die
            (Error
               (Printf.sprintf "unknown scheme %S; known: %s" id
                  (String.concat ", " (Catalog.ids ()))))
        | Some e ->
          if (not e.Catalog.weighted_ok) && not (Graph.is_unit_weighted g)
          then
            or_die
              (Error
                 (Printf.sprintf "scheme %s requires an unweighted graph" id))
          else e)
      ids
  | None ->
    List.filter
      (fun e -> e.Catalog.weighted_ok || Graph.is_unit_weighted g)
      Catalog.all

let schemes_opt_arg =
  Arg.(
    value
    & opt (some (list string)) None
    & info [ "schemes" ] ~docv:"ID1,ID2,..."
        ~doc:
          "Schemes to use (ids as in $(b,cr_cli schemes); a \
           $(b,+res) suffix wraps with the resilience ladder). Default: \
           every catalog scheme the graph supports.")

(* The long-running query server: a catalog of scheme instances under an
   open-loop Zipf workload, with steady-state telemetry windows, optional
   mid-run fault churn, optional topology churn with hot-swap repair, and
   SLO thresholds that decide the exit code. *)
let serve_impl graph_file schemes_opt seed eps snapshot_dir duration rate
    queries zipf domains chunk no_pace churn_every churn_rate
    churn_vertex_rate topo_every topo_ops repair_deadline strict window
    slo_p99 slo_rps csv_out =
  let g = or_die (load_graph graph_file) in
  let entries = resolve_entries g schemes_opt in
  if entries = [] then or_die (Error "no schemes to serve");
  let rate = if rate <= 0.0 then infinity else rate in
  let budget =
    if queries > 0 then queries
    else if rate < infinity then int_of_float (ceil (rate *. duration))
    else or_die (Error "--rate 0 (unpaced) needs an explicit --queries budget")
  in
  let traffic = Traffic.create ~zipf ~rate ~seed ~n:(Graph.n g) () in
  let pool = Pool.create ~domains () in
  let apsp = Apsp.compute ~caller:"serve oracle" g in
  (* One substrate handle across the whole catalog: the builds share the
     common preprocessing instead of recomputing it per scheme. *)
  let substrate = Substrate.create g in
  let instances, build_t =
    wall (fun () ->
        List.map
          (fun e ->
            match snapshot_dir with
            | None -> fst (e.Catalog.build ~substrate ~seed ~eps g)
            | Some dir ->
              (* Warm start: memory-map the built tables back instead of
                 re-running preprocessing; any validation failure falls
                 back to a fresh (bit-identical) build. *)
              let (inst, _), how =
                Catalog.load_or_build ~substrate ~dir ~seed ~eps g e
              in
              (match how with
              | `Loaded ->
                Printf.printf "  %-18s warm-start from %s\n%!" e.Catalog.id
                  (Catalog.snapshot_path ~dir e)
              | `Built None ->
                Printf.printf "  %-18s no snapshot on disk, built fresh\n%!"
                  e.Catalog.id
              | `Built (Some err) ->
                Printf.printf "  %-18s snapshot rejected (%s), built fresh\n%!"
                  e.Catalog.id
                  (Snapshot.error_to_string err));
              inst)
          entries)
  in
  let churn =
    if churn_every > 0 then
      Traffic.churn_cycle g ~seed:(seed + 1) ~every:churn_every ~budget
        ~link_rate:churn_rate ~vertex_rate:churn_vertex_rate
    else []
  in
  let topo =
    if topo_every > 0 then
      Traffic.topo_cycle ~seed:(seed + 2) ~every:topo_every ~budget
        ~ops:topo_ops
    else []
  in
  (* The repairer the serve loop hands each topology event to: incremental
     Catalog.repair against the previous epoch's (still warm) substrate,
     carried across events so every repair starts from the caches the last
     one left behind. The oracle recomputation lands in the serve loop's
     blackout figure, not in sw_wall. *)
  let cur_sub = ref substrate in
  let repairer _g ops =
    let r =
      Catalog.repair ?deadline:repair_deadline ~entries ~substrate:!cur_sub
        ~seed ~eps ops
    in
    cur_sub := r.Catalog.substrate;
    let reused, dropped =
      match r.Catalog.invalidation with
      | Some inv -> (Substrate.reused inv, Substrate.dropped inv)
      | None -> (0, 0)
    in
    {
      Traffic.sw_graph = r.Catalog.graph;
      sw_instances = List.map (fun (_, i, _) -> i) r.Catalog.instances;
      sw_apsp = Apsp.compute ~caller:"serve repair oracle" r.Catalog.graph;
      sw_wall = r.Catalog.wall;
      sw_full_rebuild = r.Catalog.full_rebuild;
      sw_reused = reused;
      sw_dropped = dropped;
    }
  in
  (* CSV channels open before the run and every row is flushed as it is
     written, so an exception (or SLO-driven exit) mid-campaign leaves
     valid, closed files instead of silently dropping the buffered output
     — same discipline as the bench harness's csv_close. *)
  let csv_oc = Option.map open_out csv_out in
  let epochs_path path =
    let ext = Filename.extension path in
    (if ext = "" then path else Filename.remove_extension path)
    ^ "_epochs" ^ ext
  in
  let epochs_oc =
    if topo = [] then None
    else Option.map (fun p -> open_out (epochs_path p)) csv_out
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter close_out csv_oc;
      Option.iter close_out epochs_oc)
  @@ fun () ->
  let emit oc_opt line =
    Option.iter
      (fun oc ->
        output_string oc line;
        output_char oc '\n';
        flush oc)
      oc_opt
  in
  emit csv_oc
    "scheme,routed,delivered_rate,segments,identical,rps,p50_us,p90_us,p99_us,max_lag_ms";
  emit epochs_oc
    "epoch,started_at,ops,repair_wall_s,blackout_s,full_rebuild,reused,dropped,stale_queries,stale_delivery_rate";
  Format.printf "serve campaign on %a@." Graph.pp g;
  Printf.printf "catalog: %s\n"
    (String.concat ", " (List.map (fun e -> e.Catalog.id) entries));
  Printf.printf "budget %d queries, %s, zipf %g, %d domain(s); built in %.2fs\n"
    budget
    (if rate = infinity then "unpaced (full speed)"
     else Printf.sprintf "offered rate %.0f q/s (~%.1fs)" rate
            (float_of_int budget /. rate))
    zipf domains build_t;
  (match churn with
  | [] -> Printf.printf "churn: none\n"
  | evs ->
    Printf.printf
      "churn: every %d queries (%d events; link %g%%, vertex %g%%)\n"
      churn_every (List.length evs)
      (100.0 *. churn_rate)
      (100.0 *. churn_vertex_rate));
  (match topo with
  | [] -> Printf.printf "topology churn: none\n\n"
  | evs ->
    Printf.printf "topology churn: every %d queries x %d edge ops (%d events%s)\n\n"
      topo_every topo_ops (List.length evs)
      (match repair_deadline with
      | None -> ""
      | Some d -> Printf.sprintf "; repair deadline %gs" d));
  Telemetry.reset ();
  Telemetry.set_enabled true;
  (* Steady-state windows: diffs of telemetry snapshots, so each line is
     the rate and latency of that window alone, not a running average. *)
  let last = ref (Telemetry.Snapshot.capture ()) in
  let last_t = ref 0.0 in
  let on_window ~routed:_ ~elapsed =
    if elapsed -. !last_t >= window then begin
      let snap = Telemetry.Snapshot.capture () in
      let w = Telemetry.Snapshot.since ~earlier:!last snap in
      let span = Telemetry.Snapshot.span ~earlier:!last snap in
      (match Telemetry.Snapshot.histogram w "route" with
      | Some h when Telemetry.Histogram.count h > 0 ->
        Printf.printf
          "  [%6.1fs] %8d routed %9.0f rps  p50 %8.2fus p90 %8.2fus p99 %8.2fus\n%!"
          elapsed
          (Telemetry.Histogram.count h)
          (float_of_int (Telemetry.Histogram.count h) /. Float.max span 1e-9)
          (us (Telemetry.Histogram.percentile h 0.50))
          (us (Telemetry.Histogram.percentile h 0.90))
          (us (Telemetry.Histogram.percentile h 0.99))
      | _ -> ());
      last := snap;
      last_t := elapsed
    end
  in
  let report =
    Traffic.serve ~pool ~churn ~topo ~repairer ~chunk ~pace:(not no_pace)
      ~on_window traffic ~budget ~instances ~apsp
  in
  Telemetry.set_enabled false;
  let route_hist = List.assoc_opt "route" (Telemetry.histograms ()) in
  let pct p =
    match route_hist with
    | Some h -> us (Telemetry.Histogram.percentile h p)
    | None -> 0.0
  in
  let p50 = pct 0.50 and p90 = pct 0.90 and p99 = pct 0.99 in
  (* Per-scheme rows, and the identity pin: every segment's accumulated
     eval must equal one evaluate_batch over that segment's pair sequence
     under its plan — the serve loop may not drift from the batch engine. *)
  let identical = ref true in
  Printf.printf "\n%-20s %9s %10s %9s  %s\n" "scheme" "routed" "delivered"
    "segments" "identity";
  Printf.printf "%s\n" (String.make 64 '-');
  let total_eval = ref [] in
  (* One row per instance, segments pooled across epochs. Each epoch's
     segments are replayed against that epoch's own oracle — after a
     hot-swap the old apsp no longer describes the served graph. *)
  List.iteri
    (fun i _ ->
      let eps_served =
        List.map
          (fun (ep : Traffic.epoch) -> (ep, List.nth ep.Traffic.served i))
          report.Traffic.epochs
      in
      let segs =
        List.concat_map
          (fun (_, (s : Traffic.served)) -> s.Traffic.segments)
          eps_served
      in
      let ev =
        Scheme.concat_evals
          (List.map (fun (sg : Traffic.segment) -> sg.Traffic.eval) segs)
      in
      total_eval := ev :: !total_eval;
      let routed =
        List.fold_left
          (fun a (sg : Traffic.segment) -> a + List.length sg.Traffic.pairs)
          0 segs
      in
      let ok =
        List.for_all
          (fun ((ep : Traffic.epoch), (s : Traffic.served)) ->
            List.for_all
              (fun (sg : Traffic.segment) ->
                Scheme.evaluate_batch ~pool ?faults:sg.Traffic.plan ~fast:true
                  s.Traffic.instance ep.Traffic.apsp sg.Traffic.pairs
                = sg.Traffic.eval)
              s.Traffic.segments)
          eps_served
      in
      if not ok then identical := false;
      let name = (snd (List.hd eps_served)).Traffic.instance.Scheme.name in
      Printf.printf "%-20s %9d %9.1f%% %9d  %s\n" name routed
        (100.0 *. Scheme.delivery_rate ev)
        (List.length segs)
        (if ok then "ok" else "VIOLATED");
      emit csv_oc
        (Printf.sprintf "%s,%d,%.4f,%d,%b,%.1f,%.2f,%.2f,%.2f,%.2f" name
           routed (Scheme.delivery_rate ev) (List.length segs) ok
           report.Traffic.rps p50 p90 p99
           (1e3 *. report.Traffic.max_lag)))
    instances;
  let overall = Scheme.concat_evals !total_eval in
  Printf.printf "\nrouted %d queries in %.2fs -> %.0f routes/s sustained"
    report.Traffic.routed report.Traffic.wall report.Traffic.rps;
  if rate < infinity && not no_pace then
    Printf.printf "  (max lag %.1fms)" (1e3 *. report.Traffic.max_lag);
  Printf.printf "\nroute latency: p50 %.2fus  p90 %.2fus  p99 %.2fus\n" p50 p90
    p99;
  Printf.printf "delivery: %.2f%% of routable queries\n"
    (100.0 *. Scheme.delivery_rate overall);
  Printf.printf "verdicts: %s\n"
    (String.concat "  "
       (List.filter_map
          (fun (name, c) ->
            if c > 0 then Some (Printf.sprintf "%s=%d" name c) else None)
          report.Traffic.verdicts));
  Printf.printf "serve == evaluate_batch per segment: %s\n"
    (if !identical then "ok" else "VIOLATED");
  (* Per-epoch repair accounting: the staleness window, how long the
     repair blocked the loop, what the dirty-region pass salvaged, and
     how the old tables delivered while the repair ran. *)
  let repair_identical = ref true in
  if topo <> [] then begin
    Printf.printf "\n%-5s %8s %5s %9s %10s %8s %8s %8s %8s %10s\n" "epoch"
      "start" "ops" "repair-s" "blackout-s" "rebuild" "reused" "dropped"
      "stale-q" "stale-del%";
    Printf.printf "%s\n" (String.make 88 '-');
    List.iter
      (fun (ep : Traffic.epoch) ->
        let stale_del =
          match ep.Traffic.stale_eval with
          | Some ev -> Some (Scheme.delivery_rate ev)
          | None -> None
        in
        Printf.printf "%-5d %8d %5d %9.3f %10.3f %8s %8d %8d %8d %10s\n"
          ep.Traffic.index ep.Traffic.started_at
          (List.length ep.Traffic.ops)
          ep.Traffic.repair_wall ep.Traffic.blackout
          (if ep.Traffic.index = 0 then "-"
           else if ep.Traffic.full_rebuild then "full"
           else "incr")
          ep.Traffic.reused ep.Traffic.dropped ep.Traffic.stale_queries
          (match stale_del with
          | Some r -> Printf.sprintf "%.1f%%" (100.0 *. r)
          | None -> "-");
        emit epochs_oc
          (Printf.sprintf "%d,%d,%d,%.4f,%.4f,%b,%d,%d,%d,%s"
             ep.Traffic.index ep.Traffic.started_at
             (List.length ep.Traffic.ops)
             ep.Traffic.repair_wall ep.Traffic.blackout
             ep.Traffic.full_rebuild ep.Traffic.reused ep.Traffic.dropped
             ep.Traffic.stale_queries
             (match stale_del with
             | Some r -> Printf.sprintf "%.4f" r
             | None -> "")))
      report.Traffic.epochs;
    (* --strict: replay a pair sample on every post-churn epoch's repaired
       instances and on instances built fresh on that epoch's graph — the
       incremental path must be bit-identical to a cold build. *)
    if strict then begin
      let ident_pairs =
        Scheme.sample_pairs ~seed:(seed + 5) ~n:(Graph.n g) ~count:500
      in
      List.iter
        (fun (ep : Traffic.epoch) ->
          if ep.Traffic.index > 0 then begin
            let fresh_sub = Substrate.create ep.Traffic.graph in
            List.iter2
              (fun (ent : Catalog.entry) (s : Traffic.served) ->
                let fresh, _ =
                  ent.Catalog.build ~substrate:fresh_sub ~seed ~eps
                    ep.Traffic.graph
                in
                let ev_rep =
                  Scheme.evaluate_batch ~pool ~fast:true s.Traffic.instance
                    ep.Traffic.apsp ident_pairs
                in
                let ev_fresh =
                  Scheme.evaluate_batch ~pool ~fast:true fresh ep.Traffic.apsp
                    ident_pairs
                in
                if ev_rep <> ev_fresh then begin
                  repair_identical := false;
                  Printf.printf
                    "epoch %d: %s diverges from a fresh rebuild\n"
                    ep.Traffic.index ent.Catalog.id
                end)
              entries ep.Traffic.served
          end)
        report.Traffic.epochs;
      Printf.printf "repaired instances == fresh rebuild per epoch: %s\n"
        (if !repair_identical then "ok" else "VIOLATED")
    end
  end;
  let slo_ok = ref true in
  (match slo_p99 with
  | None -> ()
  | Some ms ->
    let ok = p99 <= 1e3 *. ms in
    if not ok then slo_ok := false;
    Printf.printf "SLO p99 <= %gms: %s\n" ms (if ok then "ok" else "VIOLATED"));
  (match slo_rps with
  | None -> ()
  | Some r ->
    let ok = report.Traffic.rps >= r in
    if not ok then slo_ok := false;
    Printf.printf "SLO sustained rps >= %g: %s\n" r
      (if ok then "ok" else "VIOLATED"));
  (match csv_out with
  | None -> ()
  | Some path ->
    Printf.printf "wrote %s%s\n" path
      (if Option.is_none epochs_oc then "" else " and " ^ epochs_path path));
  if not !identical || not !repair_identical then 2
  else if not !slo_ok then 1
  else 0

let serve_cmd =
  let snapshot_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot-dir" ] ~docv:"DIR"
          ~doc:
            "Warm-start from $(b,cr_cli compile) snapshots in DIR: schemes \
             with a valid $(i,<id>.snap) are memory-mapped back instead of \
             rebuilt; missing or rejected files fall back to a fresh build.")
  in
  let duration =
    Arg.(
      value & opt float 10.0
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:
            "Length of the run; with $(b,--rate) it fixes the query budget \
             (rate * duration) unless $(b,--queries) overrides it.")
  in
  let rate =
    Arg.(
      value & opt float 2000.0
      & info [ "rate" ] ~docv:"QPS"
          ~doc:
            "Offered load in queries/second (open loop: lag accumulates if \
             the server cannot keep up). $(b,0) disables pacing and serves \
             the budget flat out.")
  in
  let queries =
    Arg.(
      value & opt int 0
      & info [ "queries" ] ~docv:"N"
          ~doc:"Explicit query budget (overrides rate * duration).")
  in
  let zipf =
    Arg.(
      value & opt float 1.0
      & info [ "zipf" ] ~docv:"S"
          ~doc:"Zipf popularity exponent for both endpoints (0 = uniform).")
  in
  let chunk =
    Arg.(
      value & opt int 256
      & info [ "chunk" ] ~docv:"K"
          ~doc:"Queries per instance drained per dispatch window.")
  in
  let no_pace =
    Arg.(
      value & flag
      & info [ "no-pace" ]
          ~doc:"Ignore the arrival schedule and serve flat out.")
  in
  let churn_every =
    Arg.(
      value & opt int 0
      & info [ "churn-every" ] ~docv:"Q"
          ~doc:
            "Alternate fault injection and healing every Q queries \
             (0 = no churn).")
  in
  let churn_rate =
    Arg.(
      value & opt float 0.02
      & info [ "churn-rate" ] ~docv:"R"
          ~doc:"Link failure rate of each churn fault plan.")
  in
  let churn_vertex_rate =
    Arg.(
      value & opt float 0.0
      & info [ "churn-vertex-rate" ] ~docv:"R"
          ~doc:"Vertex crash rate of each churn fault plan.")
  in
  let topo_every =
    Arg.(
      value & opt int 0
      & info [ "topo-churn-every" ] ~docv:"Q"
          ~doc:
            "Change the topology itself every Q queries: a random edge \
             delta is applied, the catalog is repaired incrementally, and \
             the repaired world is hot-swapped in while overdue queries \
             are answered on the old tables (0 = no topology churn).")
  in
  let topo_ops =
    Arg.(
      value & opt int 4
      & info [ "topo-churn-ops" ] ~docv:"N"
          ~doc:"Edge operations per topology-churn delta batch.")
  in
  let repair_deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "repair-deadline" ] ~docv:"SECONDS"
          ~doc:
            "Budget for the incremental dirty-region pass; when exceeded \
             (or non-positive) the repair degrades to a full rebuild \
             behind the same hot-swap.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "After the run, verify each post-churn epoch's repaired \
             instances against instances built fresh on that epoch's \
             graph; exit 2 on any divergence.")
  in
  let window =
    Arg.(
      value & opt float 1.0
      & info [ "window" ] ~docv:"SECONDS"
          ~doc:"Telemetry reporting window for the steady-state lines.")
  in
  let slo_p99 =
    Arg.(
      value
      & opt (some float) None
      & info [ "slo-p99" ] ~docv:"MS"
          ~doc:"Exit nonzero if p99 route latency exceeds MS milliseconds.")
  in
  let slo_rps =
    Arg.(
      value
      & opt (some float) None
      & info [ "slo-rps" ] ~docv:"RPS"
          ~doc:"Exit nonzero if sustained routes/second falls below RPS.")
  in
  let csv_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Write per-scheme results as CSV.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a long-lived query server over a scheme catalog under an \
          open-loop Zipf workload, with optional fault and topology churn \
          (hot-swap repair) and SLO checks")
    Term.(
      const serve_impl $ graph_arg $ schemes_opt_arg $ seed_arg $ eps_arg
      $ snapshot_dir $ duration $ rate $ queries $ zipf $ domains_arg $ chunk
      $ no_pace $ churn_every $ churn_rate $ churn_vertex_rate $ topo_every
      $ topo_ops $ repair_deadline $ strict $ window $ slo_p99 $ slo_rps
      $ csv_out)

(* ------------------------------------------------------------------ *)
(* compile / load                                                      *)
(* ------------------------------------------------------------------ *)

(* Build the selected catalog entries once and write each as a versioned
   binary snapshot under the output directory: the files cr_cli load and
   serve --snapshot-dir warm-start from. *)
let compile_impl graph_file schemes_opt seed eps out_dir =
  let g = or_die (load_graph graph_file) in
  let entries = resolve_entries g schemes_opt in
  if entries = [] then or_die (Error "no schemes to compile");
  if not (Sys.file_exists out_dir) then
    (try Unix.mkdir out_dir 0o755
     with Unix.Unix_error (e, _, _) ->
       or_die
         (Error
            (Printf.sprintf "cannot create %s: %s" out_dir
               (Unix.error_message e))));
  if not (Sys.is_directory out_dir) then
    or_die (Error (Printf.sprintf "%s is not a directory" out_dir));
  Format.printf "compiling %d scheme(s) on %a -> %s@." (List.length entries)
    Graph.pp g out_dir;
  let substrate = Substrate.create g in
  let failed = ref 0 in
  List.iter
    (fun (e : Catalog.entry) ->
      match
        try
          let r, t =
            wall (fun () ->
                Catalog.save_entry ~substrate ~dir:out_dir ~seed ~eps g e)
          in
          Result.map (fun path -> (path, t)) r
          |> Result.map_error Snapshot.error_to_string
        with Invalid_argument m -> Error m
      with
      | Ok (path, t) ->
        let bytes = (Unix.stat path).Unix.st_size in
        Printf.printf "  %-18s %10d bytes  %8.1f B/vertex  %7.2fs  %s\n%!"
          e.Catalog.id bytes
          (float_of_int bytes /. float_of_int (Graph.n g))
          t path
      | Error m ->
        incr failed;
        Printf.printf "  %-18s FAILED: %s\n%!" e.Catalog.id m)
    entries;
  if !failed > 0 then 1 else 0

let compile_cmd =
  let out_dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"DIR"
          ~doc:"Directory for the $(i,<id>.snap) files (created if missing).")
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Preprocess schemes and write each as a versioned binary snapshot")
    Term.(
      const compile_impl $ graph_arg $ schemes_opt_arg $ seed_arg $ eps_arg
      $ out_dir)

(* Load snapshots back with strict validation and (by default) pin each
   reconstructed instance against a fresh build on a routed pair sample.
   Exit codes: 0 all ok, 1 a snapshot failed to load, 2 a loaded instance
   diverged from the fresh build — the worst outcome dominates. *)
let load_impl graph_file schemes_opt seed eps dir pairs_n no_verify =
  let g = or_die (load_graph graph_file) in
  let entries = resolve_entries g schemes_opt in
  if entries = [] then or_die (Error "no schemes to load");
  (* APSP-free identity probes: sampled source SPTs scale to graphs far
     past the quadratic-oracle threshold, and both instances see the same
     ((src, dst), distance) list. *)
  let sampled =
    lazy
      (Workload.sampled_pairs ~seed:(seed + 6)
         ~sources:(max 1 ((pairs_n + 31) / 32))
         ~per_source:(min 32 (max 1 pairs_n))
         g)
  in
  let substrate = Substrate.create g in
  let load_err = ref false and diverged = ref false in
  List.iter
    (fun (e : Catalog.entry) ->
      let path = Catalog.snapshot_path ~dir e in
      match
        wall (fun () ->
            Catalog.load_entry ~verify:(not no_verify) ~path ~seed ~eps g e)
      with
      | Error err, _ ->
        load_err := true;
        Printf.printf "  %-18s FAILED: %s\n%!" e.Catalog.id
          (Snapshot.error_to_string err)
      | Ok (inst, _), t_load ->
        if pairs_n <= 0 then
          Printf.printf "  %-18s loaded in %.3fs\n%!" e.Catalog.id t_load
        else begin
          (* Identity pin: the snapshot must answer exactly like the build
             it replaced — same paths, same lengths, same verdicts. *)
          let (fresh, _), t_build =
            wall (fun () -> e.Catalog.build ~substrate ~seed ~eps g)
          in
          let ev_load = Scheme.evaluate_sampled inst (Lazy.force sampled) in
          let ev_fresh = Scheme.evaluate_sampled fresh (Lazy.force sampled) in
          let same = ev_load = ev_fresh in
          if not same then diverged := true;
          Printf.printf
            "  %-18s load %7.3fs  build %7.3fs  (%6.1fx)  identity %s\n%!"
            e.Catalog.id t_load t_build
            (t_build /. Float.max t_load 1e-9)
            (if same then "ok" else "VIOLATED")
        end)
    entries;
  if !diverged then 2 else if !load_err then 1 else 0

let load_cmd =
  let dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "dir"; "d" ] ~docv:"DIR"
          ~doc:"Directory holding the $(i,<id>.snap) files.")
  in
  let pairs =
    Arg.(
      value & opt int 200
      & info [ "pairs" ] ~docv:"K"
          ~doc:
            "Routed pairs for the loaded-vs-fresh identity check \
             ($(b,0) skips the check and the fresh build).")
  in
  let no_verify =
    Arg.(
      value & flag
      & info [ "no-verify" ]
          ~doc:"Skip the per-blob checksum pass when loading.")
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Load binary snapshots and verify them against fresh builds")
    Term.(
      const load_impl $ graph_arg $ schemes_opt_arg $ seed_arg $ eps_arg
      $ dir $ pairs $ no_verify)

(* ------------------------------------------------------------------ *)
(* delta                                                               *)
(* ------------------------------------------------------------------ *)

(* Apply one batched topology delta and repair the catalog on the warm
   substrate, against the full-rebuild baseline: walls, per-category
   reuse, and a routed identity check between the two instance sets. *)
let delta_impl graph_file schemes_opt seed eps ops_n inserts removes reweights
    deadline pairs_n out =
  let g = or_die (load_graph graph_file) in
  let explicit =
    List.map (fun (u, v, w) -> Graph.Insert (u, v, w)) inserts
    @ List.map (fun (u, v) -> Graph.Remove (u, v)) removes
    @ List.map (fun (u, v, w) -> Graph.Reweight (u, v, w)) reweights
  in
  let ops =
    if explicit <> [] then explicit
    else Delta.random ~seed:(seed + 3) ~size:ops_n g
  in
  (* Validate the batch up front and resolve schemes against whichever
     side of the delta is weighted: the warm build runs on [g], the
     repair on the post-delta graph, and an insert can make a unit graph
     weighted — a scheme must support both to ride through. *)
  let g' =
    try Graph.apply_delta g ops with Invalid_argument m -> or_die (Error m)
  in
  let entries =
    resolve_entries (if Graph.is_unit_weighted g then g' else g) schemes_opt
  in
  if entries = [] then or_die (Error "no schemes to repair");
  Printf.printf "delta batch (%d op%s):\n" (List.length ops)
    (if List.length ops = 1 then "" else "s");
  List.iter
    (fun op ->
      match op with
      | Graph.Insert (u, v, w) ->
        Printf.printf "  insert   %d -- %d  w=%g\n" u v w
      | Graph.Remove (u, v) -> Printf.printf "  remove   %d -- %d\n" u v
      | Graph.Reweight (u, v, w) ->
        Printf.printf "  reweight %d -- %d  w=%g\n" u v w)
    ops;
  (* Warm start: the catalog is built once against the substrate, the
     state a long-running server is in when churn arrives. *)
  let substrate = Substrate.create g in
  let _, warm_t =
    wall (fun () ->
        List.map (fun e -> fst (e.Catalog.build ~substrate ~seed ~eps g))
          entries)
  in
  let inc =
    try Catalog.repair ?deadline ~entries ~substrate ~seed ~eps ops
    with Invalid_argument m -> or_die (Error m)
  in
  let full =
    Catalog.repair ~force_full:true ~entries ~substrate ~seed ~eps ops
  in
  Format.printf "graph: %a -> %a@." Graph.pp g Graph.pp inc.Catalog.graph;
  Printf.printf "warm catalog build:  %.3fs (%d scheme%s)\n" warm_t
    (List.length entries)
    (if List.length entries = 1 then "" else "s");
  Printf.printf "incremental repair:  %.3fs%s\n" inc.Catalog.wall
    (if inc.Catalog.full_rebuild then "  (fell back to a full rebuild)"
     else "");
  Printf.printf "full rebuild:        %.3fs\n" full.Catalog.wall;
  Printf.printf "speedup:             %.2fx\n"
    (full.Catalog.wall /. Float.max inc.Catalog.wall 1e-9);
  (match inc.Catalog.invalidation with
  | None -> ()
  | Some inv ->
    Printf.printf "substrate carried across the delta: %d reused, %d dropped\n"
      (Substrate.reused inv) (Substrate.dropped inv);
    List.iter
      (fun (cat, r, d) -> Printf.printf "  %-14s %6d reused %6d dropped\n" cat r d)
      (Substrate.invalidation_rows inv));
  (* Identity: both instance sets must route a pair sample on the
     post-delta graph bit-identically — the dirty-region pass may only
     change wall-clock, never an answer. *)
  let apsp' = Apsp.compute ~caller:"delta identity oracle" inc.Catalog.graph in
  let pairs =
    Scheme.sample_pairs ~seed:(seed + 4) ~n:(Graph.n g) ~count:pairs_n
  in
  let ok = ref true in
  Printf.printf "\n%-20s %s\n" "scheme" "incremental == full rebuild";
  Printf.printf "%s\n" (String.make 48 '-');
  List.iter2
    (fun (e1, i1, _) (_, i2, _) ->
      let ev1 = Scheme.evaluate_batch ~fast:true i1 apsp' pairs in
      let ev2 = Scheme.evaluate_batch ~fast:true i2 apsp' pairs in
      let same = ev1 = ev2 in
      if not same then ok := false;
      Printf.printf "%-20s %s\n" e1.Catalog.id
        (if same then "ok" else "VIOLATED"))
    inc.Catalog.instances full.Catalog.instances;
  (match out with
  | None -> ()
  | Some path ->
    Graph_io.save inc.Catalog.graph path;
    Printf.printf "\nwrote %s\n" path);
  if !ok then 0 else 1

let delta_cmd =
  let ops_n =
    Arg.(
      value & opt int 8
      & info [ "ops" ] ~docv:"N"
          ~doc:
            "Size of the random delta batch (connectivity-preserving, \
             seed-derived); ignored when explicit operations are given.")
  in
  let inserts =
    Arg.(
      value
      & opt_all (t3 ~sep:',' int int float) []
      & info [ "insert" ] ~docv:"U,V,W"
          ~doc:"Insert edge (U,V) with weight W (repeatable).")
  in
  let removes =
    Arg.(
      value
      & opt_all (pair ~sep:',' int int) []
      & info [ "remove" ] ~docv:"U,V" ~doc:"Remove edge (U,V) (repeatable).")
  in
  let reweights =
    Arg.(
      value
      & opt_all (t3 ~sep:',' int int float) []
      & info [ "reweight" ] ~docv:"U,V,W"
          ~doc:"Set edge (U,V)'s weight to W (repeatable).")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Budget for the incremental pass; exceeding it degrades to \
             the full-rebuild fallback.")
  in
  let pairs =
    Arg.(
      value & opt int 500
      & info [ "pairs" ] ~docv:"K"
          ~doc:"Sampled pairs for the identity check.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "output"; "o" ] ~docv:"FILE"
          ~doc:"Write the post-delta graph.")
  in
  Cmd.v
    (Cmd.info "delta"
       ~doc:
         "Apply a batched topology delta and repair the scheme catalog \
          incrementally against a full-rebuild baseline")
    Term.(
      const delta_impl $ graph_arg $ schemes_opt_arg $ seed_arg $ eps_arg
      $ ops_n $ inserts $ removes $ reweights $ deadline $ pairs $ out)

(* ------------------------------------------------------------------ *)
(* faults                                                              *)
(* ------------------------------------------------------------------ *)

(* Accumulate evaluations across fault seeds: delivery is pooled over all
   (pair, seed) attempts, stretch over all delivered ones. *)
type fault_acc = {
  mutable delivered : int;
  mutable failed : int;
  mutable stretch_sum : float;
}

let acc_eval a (ev : Scheme.eval) =
  a.delivered <- a.delivered + Array.length ev.Scheme.samples;
  a.failed <- a.failed + ev.Scheme.failures;
  Array.iter
    (fun (d, l) -> a.stretch_sum <- a.stretch_sum +. (l /. d))
    ev.Scheme.samples

let acc_delivery a =
  let total = a.delivered + a.failed in
  if total = 0 then 1.0 else float_of_int a.delivered /. float_of_int total

let acc_stretch a =
  if a.delivered = 0 then nan
  else a.stretch_sum /. float_of_int a.delivered

let faults_cmd_impl graph_file scheme_opt seed eps pairs rates vertex_rate
    fault_seeds retries strict =
  let g = or_die (load_graph graph_file) in
  let entries =
    match scheme_opt with
    | Some id -> (
      match Catalog.find id with
      | Some e -> [ e ]
      | None ->
        or_die
          (Error
             (Printf.sprintf "unknown scheme %S; known: %s" id
                (String.concat ", " (Catalog.ids ())))))
    | None ->
      List.filter
        (fun e -> e.Catalog.weighted_ok || Graph.is_unit_weighted g)
        Catalog.all
  in
  Format.printf "fault campaign on %a@." Graph.pp g;
  Printf.printf
    "link failure rates: %s; %d fault seed(s); %d sampled pairs; retries %d\n\n"
    (String.concat ", "
       (List.map (fun r -> Printf.sprintf "%g%%" (100.0 *. r)) rates))
    fault_seeds pairs retries;
  Printf.printf "%-20s %6s  %9s %9s  %10s %10s\n" "scheme" "f%" "bare-del"
    "res-del" "bare-infl" "res-infl";
  Printf.printf "%s\n" (String.make 72 '-');
  let apsp = Apsp.compute ~caller:"faults oracle" g in
  let sampled = Scheme.sample_pairs ~seed ~n:(Graph.n g) ~count:pairs in
  let zero_fault_ok = ref true in
  List.iter
    (fun (e : Catalog.entry) ->
      match e.Catalog.build ~seed ~eps g with
      | exception Invalid_argument m ->
        Printf.printf "%-20s skipped: %s\n" e.Catalog.id m
      | inst, _ ->
        let res = Resilient.instance (Resilient.wrap ~retries inst) in
        (* Zero faults first: both the bare scheme and the wrapper must
           deliver everything on the healthy network. *)
        let ev0 = Scheme.evaluate inst apsp sampled in
        let ev0r = Scheme.evaluate res apsp sampled in
        let healthy = Scheme.avg_stretch ev0 in
        if Scheme.delivery_rate ev0 < 1.0 || Scheme.delivery_rate ev0r < 1.0
        then zero_fault_ok := false;
        Printf.printf "%-20s %6g  %8.1f%% %8.1f%%  %10.3f %10.3f\n%!"
          e.Catalog.id 0.0
          (100.0 *. Scheme.delivery_rate ev0)
          (100.0 *. Scheme.delivery_rate ev0r)
          1.0
          (Scheme.avg_stretch ev0r /. healthy);
        List.iter
          (fun rate ->
            let bare_acc = { delivered = 0; failed = 0; stretch_sum = 0.0 } in
            let res_acc = { delivered = 0; failed = 0; stretch_sum = 0.0 } in
            for i = 0 to fault_seeds - 1 do
              let plan =
                Fault.compile
                  (Fault.spec ~seed:(seed + (7919 * i)) ~link_failure_rate:rate
                     ~vertex_failure_rate:vertex_rate ())
                  g
              in
              acc_eval bare_acc
                (Scheme.evaluate_under_faults ~faults:plan inst apsp sampled);
              acc_eval res_acc
                (Scheme.evaluate_under_faults ~faults:plan res apsp sampled)
            done;
            Printf.printf "%-20s %6g  %8.1f%% %8.1f%%  %10.3f %10.3f\n%!"
              e.Catalog.id (100.0 *. rate)
              (100.0 *. acc_delivery bare_acc)
              (100.0 *. acc_delivery res_acc)
              (acc_stretch bare_acc /. healthy)
              (acc_stretch res_acc /. healthy))
          rates)
    entries;
  if strict && not !zero_fault_ok then begin
    Printf.eprintf
      "error: a scheme failed to deliver every pair on the healthy network\n";
    1
  end
  else 0

let faults_cmd =
  let scheme_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "scheme"; "s" ] ~docv:"ID"
          ~doc:"Restrict the campaign to one scheme (default: whole catalog).")
  in
  let pairs =
    Arg.(
      value & opt int 500
      & info [ "pairs" ] ~docv:"K" ~doc:"Number of sampled source/target pairs.")
  in
  let rates =
    Arg.(
      value
      & opt (list float) [ 0.01; 0.02; 0.05 ]
      & info [ "rates" ] ~docv:"R1,R2,..."
          ~doc:"Link failure rates (fractions of edges down).")
  in
  let vertex_rate =
    Arg.(
      value & opt float 0.0
      & info [ "vertex-rate" ] ~docv:"R"
          ~doc:"Vertex crash rate applied alongside every link rate.")
  in
  let fault_seeds =
    Arg.(
      value & opt int 3
      & info [ "fault-seeds" ] ~docv:"S"
          ~doc:"Number of independent fault plans per rate.")
  in
  let retries =
    Arg.(
      value & opt int 3
      & info [ "retries" ] ~docv:"N"
          ~doc:"Escape-hop retries before the resilience wrapper's detour.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Exit nonzero unless every scheme delivers 100% with zero faults.")
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:"Run a fault-injection campaign over the scheme catalog")
    Term.(
      const faults_cmd_impl $ graph_arg $ scheme_opt $ seed_arg $ eps_arg
      $ pairs $ rates $ vertex_rate $ fault_seeds $ retries $ strict)

(* ------------------------------------------------------------------ *)
(* oracle                                                              *)
(* ------------------------------------------------------------------ *)

let oracle graph_file kind k seed pairs query =
  let g = or_die (load_graph graph_file) in
  let name, q, total =
    match kind with
    | "tz" ->
      let o = Cr_baselines.Tz_oracle.preprocess ~seed g ~k in
      ( Printf.sprintf "tz-oracle k=%d (stretch %d)" k ((2 * k) - 1),
        Cr_baselines.Tz_oracle.query o,
        Cr_baselines.Tz_oracle.total_words o )
    | "pr" ->
      if not (Graph.is_unit_weighted g) then begin
        Printf.eprintf "error: the PR (2,1) oracle requires an unweighted graph\n";
        exit 1
      end;
      let o = Cr_baselines.Pr_oracle.preprocess g in
      ( "pr-oracle (stretch (2,1))",
        Cr_baselines.Pr_oracle.query o,
        Cr_baselines.Pr_oracle.total_words o )
    | _ -> assert false
  in
  Printf.printf "%s on %d vertices, total size %d words\n" name (Graph.n g) total;
  (match query with
  | Some (u, v) ->
    let t = Dijkstra.spt g u in
    Printf.printf "query(%d, %d) = %g   (true distance %g)\n" u v (q u v)
      t.Dijkstra.dist.(v)
  | None -> ());
  if pairs > 0 then begin
    let apsp = Apsp.compute ~caller:"query oracle" g in
    let sampled = Scheme.sample_pairs ~seed ~n:(Graph.n g) ~count:pairs in
    let worst = ref 1.0 and acc = ref 0.0 and cnt = ref 0 in
    List.iter
      (fun (u, v) ->
        let d = Apsp.dist apsp u v in
        if d > 0.0 && d < infinity then begin
          let s = q u v /. d in
          worst := Float.max !worst s;
          acc := !acc +. s;
          incr cnt
        end)
      sampled;
    Printf.printf "sampled %d pairs: max stretch %.4f, avg %.4f\n" !cnt !worst
      (!acc /. float_of_int (max 1 !cnt))
  end;
  0

let oracle_cmd =
  let kind =
    Arg.(
      value
      & opt (enum [ ("tz", "tz"); ("pr", "pr") ]) "tz"
      & info [ "kind" ] ~docv:"KIND" ~doc:"Oracle: $(b,tz) (2k-1) or $(b,pr) (2,1).")
  in
  let k = Arg.(value & opt int 2 & info [ "k" ] ~docv:"K") in
  let pairs = Arg.(value & opt int 1000 & info [ "pairs" ] ~docv:"P") in
  let query =
    Arg.(
      value
      & opt (some (pair ~sep:',' int int)) None
      & info [ "query" ] ~docv:"U,V" ~doc:"Print one distance estimate.")
  in
  Cmd.v
    (Cmd.info "oracle" ~doc:"Build a distance oracle and query it")
    Term.(const oracle $ graph_arg $ kind $ k $ seed_arg $ pairs $ query)

(* ------------------------------------------------------------------ *)
(* spanner                                                             *)
(* ------------------------------------------------------------------ *)

let spanner graph_file algo kk out =
  let g = or_die (load_graph graph_file) in
  if not (Bfs.is_connected g) then begin
    Printf.eprintf "error: graph must be connected\n";
    exit 1
  end;
  let h =
    match algo with
    | "greedy" -> Spanner.greedy g ~k:kk
    | "baswana-sen" -> Spanner.baswana_sen ~seed:42 g ~k:kk
    | _ -> assert false
  in
  Printf.printf "(2k-1) = %d spanner via %s: kept %d of %d edges (%.1f%%)\n"
    ((2 * kk) - 1) algo (Graph.m h) (Graph.m g)
    (100.0 *. float_of_int (Graph.m h) /. float_of_int (max 1 (Graph.m g)));
  Printf.printf "measured max stretch: %.4f (bound %d)\n"
    (Spanner.max_stretch g h)
    ((2 * kk) - 1);
  (match out with
  | None -> ()
  | Some path ->
    Graph_io.save h path;
    Printf.printf "wrote %s\n" path);
  0

let spanner_cmd =
  let algo =
    Arg.(
      value
      & opt (enum [ ("greedy", "greedy"); ("baswana-sen", "baswana-sen") ]) "greedy"
      & info [ "algo"; "a" ] ~docv:"ALGO")
  in
  let kk = Arg.(value & opt int 2 & info [ "k" ] ~docv:"K") in
  let out =
    Arg.(value & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "spanner" ~doc:"Compute a (2k-1)-spanner of a graph")
    Term.(const spanner $ graph_arg $ algo $ kk $ out)

let main_cmd =
  Cmd.group
    (Cmd.info "cr_cli" ~version:"1.0.0"
       ~doc:"Compact routing schemes of Roditty and Tov (PODC'15)")
    [
      generate_cmd; schemes_cmd; route_cmd; trace_cmd; stats_cmd; table1_cmd;
      throughput_cmd; serve_cmd; compile_cmd; load_cmd; delta_cmd; faults_cmd;
      oracle_cmd; spanner_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
