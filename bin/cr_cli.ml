(* Command-line interface: generate graphs, inspect schemes, route
   messages, and print the Table 1 reproduction on demand.

   Every subcommand is composed from the one argument vocabulary below:
   each kind of value is an [Arg.conv] with its range check, so a bad
   value is a usage error (exit 124) naming its flag, raised before any
   graph is read or any scheme is built. The failures that remain are
   runtime failures (exit 1, "error: <message>"): the graph file, scheme
   support and every build each go through one term or helper. *)
open Cmdliner
open Cr_graph
open Cr_routing
open Cr_core

(* ------------------------------------------------------------------ *)
(* Runtime failures and exit statuses                                  *)
(* ------------------------------------------------------------------ *)

let die fmt =
  Printf.ksprintf
    (fun m ->
      Printf.eprintf "error: %s\n" m;
      exit 1)
    fmt

let or_die = function Ok v -> v | Error m -> die "%s" m

(* Preconditions the library checks on graph-dependent input (a
   disconnected graph for rt-3eps, a malformed delta) raise
   [Invalid_argument]; here they become errors for the caller to report. *)
let guarded f = try Ok (f ()) with Invalid_argument m -> Error m

(* An n-by-n step (an [Apsp] oracle, the [full] scheme's next-hop matrix)
   refuses a graph past [Apsp.guard_quadratic]'s threshold by raising
   [Failure] before it allocates, and no other step of a build or an
   oracle raises [Failure]: that refusal is a runtime failure, reported
   with the guard's message. *)
let quadratic f = try f () with Failure m -> die "%s" m

let apsp_oracle ~caller g = quadratic (fun () -> Apsp.compute ~caller g)

let verdict ok = if ok then "ok" else "VIOLATED"

let success = Cmd.Exit.info 0 ~doc:"on success."

let failure =
  Cmd.Exit.info 1
    ~doc:
      "on a runtime failure: an unreadable graph or output path, a scheme \
       the graph does not support, a failed build or snapshot load, a \
       message not delivered, a violated bound or SLO, or a repair that \
       diverged from a full rebuild."

let divergence =
  Cmd.Exit.info 2
    ~doc:
      "on an identity divergence: a served segment or a loaded or repaired \
       instance routes differently from its reference."

let usage =
  Cmd.Exit.info Cmd.Exit.cli_error
    ~doc:
      "on a bad argument; the message names the flag, and no graph was \
       read and no scheme built."

let bug = Cmd.Exit.info Cmd.Exit.internal_error ~doc:"on an internal error (a bug)."

let cmd ?(exits = [ failure ]) name ~doc term =
  Cmd.v (Cmd.info name ~doc ~exits:((success :: exits) @ [ usage; bug ])) term

(* ------------------------------------------------------------------ *)
(* Argument vocabulary: one converter per rule                         *)
(* ------------------------------------------------------------------ *)

(* [conv] narrowed to the values [ok] accepts. *)
let checked conv what ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" what s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive =
  checked Arg.float "a finite number > 0" (fun x -> Float.is_finite x && x > 0.0)

let non_negative =
  checked Arg.float "a finite number >= 0" (fun x ->
      Float.is_finite x && x >= 0.0)

let fraction = checked Arg.float "a number in [0, 1]" (fun x -> x >= 0.0 && x <= 1.0)

let finite = checked Arg.float "a finite number" Float.is_finite

let at_least lo =
  checked Arg.int (Printf.sprintf "an integer >= %d" lo) (fun v -> v >= lo)

let weight_range =
  checked
    Arg.(pair ~sep:',' float float)
    "LO,HI with 0 < LO <= HI, both finite"
    (fun (lo, hi) -> 0.0 < lo && lo <= hi && Float.is_finite hi)

(* A catalog id; a "+res" suffix wraps the entry with the resilience
   ladder. *)
let scheme =
  let parse id =
    match Catalog.find id with
    | Some e -> Ok e
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown scheme %S; known: %s" id
             (String.concat ", " (Catalog.ids ()))))
  in
  Arg.conv (parse, fun ppf (e : Catalog.entry) -> Format.pp_print_string ppf e.id)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let eps_arg =
  Arg.(
    value
    & opt positive 0.5
    & info [ "eps" ] ~docv:"EPS" ~doc:"Stretch slack parameter eps.")

let scheme_arg =
  Arg.(
    required
    & opt (some scheme) None
    & info [ "scheme"; "s" ] ~docv:"ID"
        ~doc:"Scheme id; run $(b,cr_cli schemes) for the list.")

let schemes_arg =
  Arg.(
    value
    & opt (some (checked (list scheme) "at least one scheme id" (( <> ) []))) None
    & info [ "schemes" ] ~docv:"ID1,ID2,..."
        ~doc:
          "Schemes to use (ids as in $(b,cr_cli schemes); a \
           $(b,+res) suffix wraps with the resilience ladder). Default: \
           every catalog scheme the graph supports.")

let domains_arg =
  Arg.(
    value
    & opt (at_least 1) (Pool.domains (Pool.default ()))
    & info [ "domains" ] ~docv:"D"
        ~doc:"Domain-pool width for batched routing.")

let pairs_arg ?(docv = "K") ?(doc = "Number of sampled source/target pairs.")
    ~min default =
  Arg.(value & opt (at_least min) default & info [ "pairs" ] ~docv ~doc)

let file_arg names ~doc =
  Arg.(value & opt (some string) None & info names ~docv:"FILE" ~doc)

let jsonl_arg = file_arg [ "jsonl" ]

let csv_arg = file_arg [ "csv" ]

let output_arg = file_arg [ "output"; "o" ]

let fault_rate_arg name ~default ~doc =
  Arg.(value & opt fraction default & info [ name ] ~docv:"R" ~doc)

(* [with_graph run] reads the graph file only after every argument of
   [run] has parsed, then hands it over as [run]'s last argument. A
   missing file is a usage error; an unreadable or malformed one is a
   runtime failure. *)
let with_graph run =
  let path =
    Arg.(
      required
      & opt (some file) None
      & info [ "graph"; "g" ] ~docv:"FILE" ~doc:"Graph file (see $(b,generate)).")
  in
  let load run path =
    run (try Graph_io.load path with Failure m -> die "%s" m)
  in
  Term.(const load $ run $ path)

(* ------------------------------------------------------------------ *)
(* Shared steps                                                        *)
(* ------------------------------------------------------------------ *)

let runs_on g (e : Catalog.entry) = e.weighted_ok || Graph.is_unit_weighted g

(* A named scheme the graph cannot run is a runtime failure. *)
let require g (e : Catalog.entry) =
  if not (runs_on g e) then die "scheme %s requires an unweighted graph" e.id;
  e

(* The named entries, or every entry the graph supports. *)
let select g = function
  | Some es -> List.map (require g) es
  | None -> List.filter (runs_on g) Catalog.all

(* Every scheme build goes through here. With [snapshot_dir] the entry
   warm-starts from its snapshot there: the tables are mapped back
   instead of re-running preprocessing, and a missing or rejected file
   falls back to a fresh, bit-identical build. *)
let build ?substrate ?snapshot_dir ~seed ~eps g (e : Catalog.entry) =
  guarded @@ fun () ->
  quadratic @@ fun () ->
  match snapshot_dir with
  | None -> e.build ?substrate ~seed ~eps g
  | Some dir ->
    let r, how = Catalog.load_or_build ?substrate ~dir ~seed ~eps g e in
    (match how with
    | `Loaded ->
      Printf.printf "  %-18s warm-start from %s\n%!" e.id
        (Catalog.snapshot_path ~dir e)
    | `Built None ->
      Printf.printf "  %-18s no snapshot on disk, built fresh\n%!" e.id
    | `Built (Some err) ->
      Printf.printf "  %-18s snapshot rejected (%s), built fresh\n%!" e.id
        (Snapshot.error_to_string err));
    r

let build_or_die ?substrate ?snapshot_dir ~seed ~eps g (e : Catalog.entry) =
  match build ?substrate ?snapshot_dir ~seed ~eps g e with
  | Ok r -> r
  | Error m -> die "%s: %s" e.id m

(* The identity tier of load, delta and serve --strict: one scheme
   reached two ways (a snapshot and a fresh build, an incremental repair
   and a full rebuild) must evaluate the pair sample [eval] replays bit
   for bit alike: every routed length, every failure, the header peak. *)
let same_routes eval a b = eval a = eval b

let check_endpoints g vs =
  let n = Graph.n g in
  if List.exists (fun v -> v < 0 || v >= n) vs then
    die "endpoints must be in [0, %d)" n

(* The verdict and stretch lines route and trace report; [true] iff the
   message arrived at [dst]. A message delivered anywhere else is a
   failure, even if some buggy table said Deliver. *)
let report_outcome g ~src ~dst (alpha, beta) (o : Port_model.outcome) =
  let d = (Dijkstra.spt g src).Dijkstra.dist.(dst) in
  let ok = Port_model.delivered_to o dst in
  Printf.printf "verdict: %s%s  hops: %d  length: %g  distance: %g\n"
    (Format.asprintf "%a" Port_model.pp_verdict o.verdict)
    (if Port_model.delivered o && not ok then
       Printf.sprintf " at vertex %d, not the destination" o.final
     else "")
    o.hops o.length d;
  if ok && d > 0.0 && d < infinity then
    Printf.printf "stretch: %.4f (guarantee: length <= %.3f*d + %g)\n"
      (o.length /. d) alpha beta;
  ok

(* Write [contents ()] to the optional [path] and say so. *)
let export path contents =
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc -> output_string oc (contents ()));
      Printf.printf "wrote %s\n" path)
    path

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* generate                                                            *)
(* ------------------------------------------------------------------ *)

let family_conv =
  let families =
    [ "path"; "cycle"; "grid"; "torus"; "hypercube"; "tree"; "gnp"; "gnm";
      "ba"; "caveman"; "power-law"; "glp" ]
  in
  Arg.enum (List.map (fun f -> (f, f)) families)

(* Some families need a minimum (or allow a maximum) vertex count; a
   count the family rejects is a usage error like any other bad flag. *)
let generate family n seed weights out =
  let make () =
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
  match guarded make with
  | Error m ->
    `Error (true, Printf.sprintf "option '-n': %d does not suit family %s (%s)" n family m)
  | Ok g ->
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
    `Ok 0

let generate_cmd =
  let family =
    Arg.(
      value
      & opt family_conv "gnp"
      & info [ "family"; "f" ] ~docv:"FAMILY" ~doc:"Graph family.")
  in
  let n =
    Arg.(value & opt (at_least 1) 256 & info [ "n" ] ~docv:"N" ~doc:"Vertex count.")
  in
  let weights =
    Arg.(
      value
      & opt (some weight_range) None
      & info [ "weights"; "w" ] ~docv:"LO,HI"
          ~doc:"Draw edge weights uniformly from [LO,HI].")
  in
  cmd "generate" ~doc:"Generate a synthetic graph"
    Term.(
      ret
        (const generate $ family $ n $ seed_arg $ weights
        $ output_arg ~doc:"Output file (default stdout)."))

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
  cmd "schemes" ~exits:[] ~doc:"List the available routing schemes"
    Term.(const schemes $ const ())

(* ------------------------------------------------------------------ *)
(* route                                                               *)
(* ------------------------------------------------------------------ *)

let route e src dst seed eps verbose g =
  check_endpoints g [ src; dst ];
  let inst, bound = build_or_die ~seed ~eps g (require g e) in
  let o = Scheme.route inst ~src ~dst in
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
  let ok = report_outcome g ~src ~dst bound o in
  Printf.printf "peak header: %d words\n" o.Port_model.header_words_peak;
  if ok then 0 else 1

let route_cmd =
  let src = Arg.(required & opt (some int) None & info [ "src" ] ~docv:"U") in
  let dst = Arg.(required & opt (some int) None & info [ "dst" ] ~docv:"V") in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print every hop with its port.")
  in
  cmd "route" ~doc:"Route one message and print the simulated path"
    (with_graph
       Term.(const route $ scheme_arg $ src $ dst $ seed_arg $ eps_arg $ verbose))

(* ------------------------------------------------------------------ *)
(* trace                                                               *)
(* ------------------------------------------------------------------ *)

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

let trace (e : Catalog.entry) src dst seed eps rate vertex_rate fault_seed
    jsonl g =
  check_endpoints g [ src; dst ];
  let inst, bound = build_or_die ~seed ~eps g (require g e) in
  let faults = fault_plan g ~fault_seed ~rate ~vertex_rate in
  Telemetry.reset ();
  let o, events =
    Telemetry.with_trace (fun () -> Scheme.route ?faults inst ~src ~dst)
  in
  Printf.printf "trace %d -> %d (%s%s):\n" src dst e.id
    (match faults with
    | None -> ""
    | Some _ ->
      Printf.sprintf ", faults rate=%g vertex-rate=%g seed=%d" rate vertex_rate
        fault_seed);
  List.iter (narrate g) events;
  let ok = report_outcome g ~src ~dst bound o in
  Printf.printf "counters:";
  List.iter
    (fun (nm, v) -> if v <> 0 then Printf.printf " %s=%d" nm v)
    (Telemetry.counter_rows (Telemetry.totals ()));
  print_newline ();
  export jsonl (fun () ->
      String.concat ""
        (List.map (fun ev -> Telemetry.event_to_json ev ^ "\n") events)
      ^ Telemetry.to_jsonl ());
  if ok then 0 else 1

let trace_cmd =
  let src = Arg.(required & pos 0 (some int) None & info [] ~docv:"SRC") in
  let dst = Arg.(required & pos 1 (some int) None & info [] ~docv:"DST") in
  let fault_seed =
    Arg.(
      value & opt int 1
      & info [ "fault-seed" ] ~docv:"S" ~doc:"Seed of the frozen fault plan.")
  in
  cmd "trace" ~doc:"Route one message with per-hop telemetry narration"
    (with_graph
       Term.(
         const trace $ scheme_arg $ src $ dst $ seed_arg $ eps_arg
         $ fault_rate_arg "rate" ~default:0.0
             ~doc:"Link failure rate for the traced run."
         $ fault_rate_arg "vertex-rate" ~default:0.0
             ~doc:"Vertex crash rate for the traced run."
         $ fault_seed
         $ jsonl_arg ~doc:"Also write the trace events and counters as JSON lines."))

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

let stats e seed eps pairs domains jsonl csv g =
  (* The whole campaign runs with telemetry on — the build lands in the
     "preprocess" histogram, every routed pair in "route" — and the prior
     enabled state is restored before exit so stats composes with traces. *)
  let was = Telemetry.enabled () in
  Telemetry.reset ();
  Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled was) @@ fun () ->
  let e = require g e in
  (* The oracle first: a graph past the O(n^2) guard is refused before
     anything is built. *)
  let apsp = apsp_oracle ~caller:(e.Catalog.id ^ " stats oracle") g in
  let inst, (alpha, beta) = build_or_die ~seed ~eps g e in
  Printf.printf "scheme: %s (%s)\n" e.Catalog.id e.Catalog.description;
  Format.printf "graph:  %a@." Graph.pp g;
  Printf.printf "tables: max %d words, avg %.1f words, labels max %d words\n"
    (Scheme.max_table_words inst)
    (Scheme.avg_table_words inst)
    (Scheme.max_label_words inst);
  let sampled = Scheme.sample_pairs ~seed ~n:(Graph.n g) ~count:pairs in
  let pool = Pool.create ~domains () in
  let ev = Scheme.evaluate_batch ~pool inst apsp sampled in
  Printf.printf "routed %d pairs: failures %d, "
    (Array.length ev.Scheme.samples + ev.Scheme.failures)
    ev.Scheme.failures;
  (* The stretch summaries read 1.0 on an empty sample: with no delivered
     pair there is no stretch to report. *)
  if Array.length ev.Scheme.samples = 0 then
    print_endline "stretch n/a (no pair delivered)"
  else
    Printf.printf "max stretch %.4f, avg %.4f, p99 %.4f\n"
      (Scheme.max_stretch ev) (Scheme.avg_stretch ev)
      (Scheme.percentile_stretch ev 0.99);
  Printf.printf "peak header: %d words\n" ev.Scheme.header_words_peak;
  (* An empty sample (a one-vertex graph has no pair to route) checks
     nothing: say so, and exit 1, since only a checked guarantee that
     held exits 0. *)
  let checked = not (Scheme.eval_is_empty ev) in
  let within = checked && Scheme.within ev ~alpha ~beta in
  Printf.printf "guarantee (%.3f, %g): %s\n" alpha beta
    (if not checked then "not checked (no pair to route)"
     else if within then "satisfied"
     else "VIOLATED");
  print_telemetry ();
  export jsonl Telemetry.to_jsonl;
  export csv Telemetry.to_csv;
  if within then 0 else 1

let stats_cmd =
  cmd "stats" ~doc:"Preprocess a scheme and report space, stretch, and telemetry"
    (with_graph
       Term.(
         const stats $ scheme_arg $ seed_arg $ eps_arg
         $ pairs_arg ~min:1 2000 $ domains_arg
         $ jsonl_arg
             ~doc:"Write the campaign's counters and histograms as JSON lines."
         $ csv_arg ~doc:"Write the campaign's counters and histograms as CSV."))

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
  let apsp = apsp_oracle ~caller:"table1 oracle" g
  and apsp_w = apsp_oracle ~caller:"table1 weighted oracle" gw in
  List.iter
    (fun (e : Catalog.entry) ->
      let graph, oracle = if e.Catalog.weighted_ok then (gw, apsp_w) else (g, apsp) in
      let inst, (alpha, beta) = build_or_die ~seed ~eps graph e in
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
  let n =
    Arg.(value & opt (at_least 2) 256 & info [ "n" ] ~docv:"N" ~doc:"Vertex count.")
  in
  cmd "table1" ~doc:"Print the Table 1 reproduction on a random graph"
    Term.(const table1 $ n $ seed_arg $ eps_arg $ pairs_arg ~min:1 1000)

(* ------------------------------------------------------------------ *)
(* throughput                                                          *)
(* ------------------------------------------------------------------ *)

let throughput e seed eps pairs domains g =
  let e = require g e in
  (* The oracle first: a graph past the O(n^2) guard is refused before
     anything is built. *)
  let apsp = apsp_oracle ~caller:(e.Catalog.id ^ " throughput oracle") g in
  let inst, _ = build_or_die ~seed ~eps g e in
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
    (verdict identical);
  if identical then 0 else 1

let throughput_cmd =
  cmd "throughput"
    ~doc:
      "Measure routes/sec: serial with path recording and loop detection \
       on, serial with both off, and the parallel batch engine"
    (with_graph
       Term.(
         const throughput $ scheme_arg $ seed_arg $ eps_arg
         $ pairs_arg ~min:1 5000 $ domains_arg))

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let us x = 1e6 *. x

(* The long-running query server: a catalog of scheme instances under an
   open-loop Zipf workload, with steady-state telemetry windows, optional
   mid-run fault churn, optional topology churn with hot-swap repair, and
   SLO thresholds that decide the exit code. [rate] is [infinity] when
   unpaced. *)
let serve_impl schemes seed eps snapshot_dir (rate, budget) zipf domains chunk
    no_pace churn_every churn_rate churn_vertex_rate topo_every topo_ops
    repair_deadline strict window slo_p99 slo_rps csv_out g =
  let entries = select g schemes in
  let traffic =
    or_die (guarded (fun () -> Traffic.create ~zipf ~rate ~seed ~n:(Graph.n g) ()))
  in
  let pool = Pool.create ~domains () in
  let apsp = apsp_oracle ~caller:"serve oracle" g in
  (* One substrate handle across the whole catalog: the builds share the
     common preprocessing instead of recomputing it per scheme. *)
  let substrate = Substrate.create g in
  let instances, build_t =
    wall (fun () ->
        List.map
          (fun e -> fst (build_or_die ~substrate ?snapshot_dir ~seed ~eps g e))
          entries)
  in
  let churn =
    Traffic.churn_cycle g ~seed:(seed + 1) ~every:churn_every ~budget
      ~link_rate:churn_rate ~vertex_rate:churn_vertex_rate
  in
  let topo =
    Traffic.topo_cycle ~seed:(seed + 2) ~every:topo_every ~budget ~ops:topo_ops
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
      sw_apsp = apsp_oracle ~caller:"serve repair oracle" r.Catalog.graph;
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
        (List.length segs) (verdict ok);
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
  Printf.printf "serve == evaluate_batch per segment: %s\n" (verdict !identical);
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
            let substrate = Substrate.create ep.Traffic.graph in
            let eval i =
              Scheme.evaluate_batch ~pool ~fast:true i ep.Traffic.apsp
                ident_pairs
            in
            List.iter2
              (fun (e : Catalog.entry) (s : Traffic.served) ->
                let fresh, _ =
                  build_or_die ~substrate ~seed ~eps ep.Traffic.graph e
                in
                if not (same_routes eval s.Traffic.instance fresh) then begin
                  repair_identical := false;
                  Printf.printf
                    "epoch %d: %s diverges from a fresh rebuild\n"
                    ep.Traffic.index e.id
                end)
              entries ep.Traffic.served
          end)
        report.Traffic.epochs;
      Printf.printf "repaired instances == fresh rebuild per epoch: %s\n"
        (verdict !repair_identical)
    end
  end;
  let slo name ok =
    Printf.printf "SLO %s: %s\n" name (verdict ok);
    ok
  in
  let p99_ok =
    Option.fold slo_p99 ~none:true ~some:(fun ms ->
        slo (Printf.sprintf "p99 <= %gms" ms) (p99 <= 1e3 *. ms))
  in
  let rps_ok =
    Option.fold slo_rps ~none:true ~some:(fun r ->
        slo (Printf.sprintf "sustained rps >= %g" r) (report.Traffic.rps >= r))
  in
  (match csv_out with
  | None -> ()
  | Some path ->
    Printf.printf "wrote %s%s\n" path
      (if Option.is_none epochs_oc then "" else " and " ^ epochs_path path));
  if not !identical || not !repair_identical then 2
  else if not (p99_ok && rps_ok) then 1
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
      value & opt positive 10.0
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:
            "Length of the run; with $(b,--rate) it fixes the query budget \
             (rate * duration) unless $(b,--queries) overrides it.")
  in
  let rate =
    Arg.(
      value & opt non_negative 2000.0
      & info [ "rate" ] ~docv:"QPS"
          ~doc:
            "Offered load in queries/second (open loop: lag accumulates if \
             the server cannot keep up). $(b,0) disables pacing and serves \
             the budget flat out.")
  in
  let queries =
    Arg.(
      value & opt (at_least 0) 0
      & info [ "queries" ] ~docv:"N"
          ~doc:"Explicit query budget (overrides rate * duration).")
  in
  (* The offered rate (infinity when unpaced) and the query budget: an
     unpaced run needs an explicit budget, or it would never end, and
     rate * duration must be a count an int can hold. *)
  let pacing =
    let budget rate duration queries =
      let rate = if rate = 0.0 then infinity else rate in
      let paced = ceil (rate *. duration) in
      if queries > 0 then `Ok (rate, queries)
      else if rate = infinity then
        `Error
          (true, "option '--rate': 0 (unpaced) needs an explicit --queries budget")
      else if paced >= float_of_int max_int then
        `Error (true, "option '--rate': rate * duration overflows the query budget")
      else `Ok (rate, int_of_float paced)
    in
    Term.(ret (const budget $ rate $ duration $ queries))
  in
  let zipf =
    Arg.(
      value & opt non_negative 1.0
      & info [ "zipf" ] ~docv:"S"
          ~doc:"Zipf popularity exponent for both endpoints (0 = uniform).")
  in
  let chunk =
    Arg.(
      value & opt (at_least 1) 256
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
      value & opt (at_least 0) 0
      & info [ "churn-every" ] ~docv:"Q"
          ~doc:
            "Alternate fault injection and healing every Q queries \
             (0 = no churn).")
  in
  let topo_every =
    Arg.(
      value & opt (at_least 0) 0
      & info [ "topo-churn-every" ] ~docv:"Q"
          ~doc:
            "Change the topology itself every Q queries: a random edge \
             delta is applied, the catalog is repaired incrementally, and \
             the repaired world is hot-swapped in while overdue queries \
             are answered on the old tables (0 = no topology churn).")
  in
  let topo_ops =
    Arg.(
      value & opt (at_least 1) 4
      & info [ "topo-churn-ops" ] ~docv:"N"
          ~doc:"Edge operations per topology-churn delta batch.")
  in
  let repair_deadline =
    Arg.(
      value
      & opt (some finite) None
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
      value & opt positive 1.0
      & info [ "window" ] ~docv:"SECONDS"
          ~doc:"Telemetry reporting window for the steady-state lines.")
  in
  let slo_p99 =
    Arg.(
      value
      & opt (some positive) None
      & info [ "slo-p99" ] ~docv:"MS"
          ~doc:"Exit nonzero if p99 route latency exceeds MS milliseconds.")
  in
  let slo_rps =
    Arg.(
      value
      & opt (some positive) None
      & info [ "slo-rps" ] ~docv:"RPS"
          ~doc:"Exit nonzero if sustained routes/second falls below RPS.")
  in
  cmd "serve" ~exits:[ failure; divergence ]
    ~doc:
      "Run a long-lived query server over a scheme catalog under an \
       open-loop Zipf workload, with optional fault and topology churn \
       (hot-swap repair) and SLO checks"
    (with_graph
       Term.(
         const serve_impl $ schemes_arg $ seed_arg $ eps_arg $ snapshot_dir
         $ pacing $ zipf $ domains_arg $ chunk $ no_pace $ churn_every
         $ fault_rate_arg "churn-rate" ~default:0.02
             ~doc:"Link failure rate of each churn fault plan."
         $ fault_rate_arg "churn-vertex-rate" ~default:0.0
             ~doc:"Vertex crash rate of each churn fault plan."
         $ topo_every $ topo_ops $ repair_deadline $ strict $ window $ slo_p99
         $ slo_rps
         $ csv_arg ~doc:"Write per-scheme results as CSV."))

(* ------------------------------------------------------------------ *)
(* compile / load                                                      *)
(* ------------------------------------------------------------------ *)

(* Build the selected catalog entries once and write each as a versioned
   binary snapshot under the output directory: the files cr_cli load and
   serve --snapshot-dir warm-start from. *)
let compile_impl schemes seed eps out_dir g =
  let entries = select g schemes in
  if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755;
  if not (Sys.is_directory out_dir) then die "%s is not a directory" out_dir;
  Format.printf "compiling %d scheme(s) on %a -> %s@." (List.length entries)
    Graph.pp g out_dir;
  let substrate = Substrate.create g in
  let failed = ref 0 in
  List.iter
    (fun (e : Catalog.entry) ->
      match
        guarded (fun () ->
            quadratic (fun () ->
                wall (fun () ->
                    Catalog.save_entry ~substrate ~dir:out_dir ~seed ~eps g e)))
      with
      | Ok (Ok path, t) ->
        let bytes = (Unix.stat path).Unix.st_size in
        Printf.printf "  %-18s %10d bytes  %8.1f B/vertex  %7.2fs  %s\n%!"
          e.Catalog.id bytes
          (float_of_int bytes /. float_of_int (Graph.n g))
          t path
      | Ok (Error err, _) ->
        incr failed;
        Printf.printf "  %-18s FAILED: %s\n%!" e.Catalog.id
          (Snapshot.error_to_string err)
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
  cmd "compile"
    ~doc:"Preprocess schemes and write each as a versioned binary snapshot"
    (with_graph
       Term.(const compile_impl $ schemes_arg $ seed_arg $ eps_arg $ out_dir))

(* Load snapshots back with strict validation and (by default) pin each
   reconstructed instance against a fresh build on a routed pair sample.
   Exit codes: 0 all ok, 1 a snapshot failed to load, 2 a loaded instance
   diverged from the fresh build — the worst outcome dominates. *)
let load_impl schemes seed eps dir pairs_n no_verify g =
  let entries = select g schemes in
  (* APSP-free identity probes: sampled source SPTs scale to graphs far
     past the quadratic-oracle threshold, and both instances see the same
     ((src, dst), distance) list. *)
  let sampled =
    lazy
      (Workload.sampled_pairs ~seed:(seed + 6)
         ~sources:((pairs_n + 31) / 32)
         ~per_source:(min 32 pairs_n) g)
  in
  let eval inst = Scheme.evaluate_sampled inst (Lazy.force sampled) in
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
      | Ok _, t_load when pairs_n = 0 ->
        Printf.printf "  %-18s loaded in %.3fs\n%!" e.Catalog.id t_load
      | Ok (inst, _), t_load ->
        let (fresh, _), t_build =
          wall (fun () -> build_or_die ~substrate ~seed ~eps g e)
        in
        let same = same_routes eval inst fresh in
        if not same then diverged := true;
        Printf.printf
          "  %-18s load %7.3fs  build %7.3fs  (%6.1fx)  identity %s\n%!"
          e.Catalog.id t_load t_build
          (t_build /. Float.max t_load 1e-9)
          (verdict same))
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
  let no_verify =
    Arg.(
      value & flag
      & info [ "no-verify" ]
          ~doc:"Skip the per-blob checksum pass when loading.")
  in
  cmd "load" ~exits:[ failure; divergence ]
    ~doc:"Load binary snapshots and verify them against fresh builds"
    (with_graph
       Term.(
         const load_impl $ schemes_arg $ seed_arg $ eps_arg $ dir
         $ pairs_arg ~min:0 200
             ~doc:
               "Routed pairs for the loaded-vs-fresh identity check \
                ($(b,0) skips the check and the fresh build)."
         $ no_verify))

(* ------------------------------------------------------------------ *)
(* delta                                                               *)
(* ------------------------------------------------------------------ *)

(* Apply one batched topology delta and repair the catalog on the warm
   substrate, against the full-rebuild baseline: walls, per-category
   reuse, and a routed identity check between the two instance sets. *)
let delta_impl schemes seed eps ops_n inserts removes reweights deadline
    pairs_n out g =
  let explicit =
    List.map (fun (u, v, w) -> Graph.Insert (u, v, w)) inserts
    @ List.map (fun (u, v) -> Graph.Remove (u, v)) removes
    @ List.map (fun (u, v, w) -> Graph.Reweight (u, v, w)) reweights
  in
  (* Validate the batch up front and resolve schemes against whichever
     side of the delta is weighted: the warm build runs on [g], the
     repair on the post-delta graph, and an insert can make a unit graph
     weighted — a scheme must support both to ride through. *)
  let ops, g' =
    or_die
      (guarded (fun () ->
           let ops =
             if explicit <> [] then explicit
             else Delta.random ~seed:(seed + 3) ~size:ops_n g
           in
           (ops, Graph.apply_delta g ops)))
  in
  let entries = select (if Graph.is_unit_weighted g then g' else g) schemes in
  (* The identity oracle on the post-delta graph, before any build: a
     graph past the O(n^2) guard is refused before the catalog is built
     three times. *)
  let apsp' = apsp_oracle ~caller:"delta identity oracle" g' in
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
        List.map (fun e -> build_or_die ~substrate ~seed ~eps g e) entries)
  in
  let repair ?deadline ?force_full () =
    or_die
      (guarded (fun () ->
           Catalog.repair ?deadline ?force_full ~entries ~substrate ~seed ~eps
             ops))
  in
  let inc = repair ?deadline () in
  let full = repair ~force_full:true () in
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
  let pairs =
    Scheme.sample_pairs ~seed:(seed + 4) ~n:(Graph.n g) ~count:pairs_n
  in
  let eval i = Scheme.evaluate_batch ~fast:true i apsp' pairs in
  let ok = ref true in
  Printf.printf "\n%-20s %s\n" "scheme" "incremental == full rebuild";
  Printf.printf "%s\n" (String.make 48 '-');
  List.iter2
    (fun ((e : Catalog.entry), i1, _) (_, i2, _) ->
      let same = same_routes eval i1 i2 in
      if not same then ok := false;
      Printf.printf "%-20s %s\n" e.id (verdict same))
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
      value & opt (at_least 0) 8
      & info [ "ops" ] ~docv:"N"
          ~doc:
            "Size of the random delta batch (connectivity-preserving, \
             seed-derived); ignored when explicit operations are given.")
  in
  let inserts =
    Arg.(
      value
      & opt_all (t3 ~sep:',' int int positive) []
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
      & opt_all (t3 ~sep:',' int int positive) []
      & info [ "reweight" ] ~docv:"U,V,W"
          ~doc:"Set edge (U,V)'s weight to W (repeatable).")
  in
  let deadline =
    Arg.(
      value
      & opt (some finite) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Budget for the incremental pass; exceeding it degrades to \
             the full-rebuild fallback.")
  in
  cmd "delta"
    ~doc:
      "Apply a batched topology delta and repair the scheme catalog \
       incrementally against a full-rebuild baseline"
    (with_graph
       Term.(
         const delta_impl $ schemes_arg $ seed_arg $ eps_arg $ ops_n $ inserts
         $ removes $ reweights $ deadline
         $ pairs_arg ~min:1 500 ~doc:"Sampled pairs for the identity check."
         $ output_arg ~doc:"Write the post-delta graph."))

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

let faults_cmd_impl scheme seed eps pairs rates vertex_rate fault_seeds
    retries strict g =
  let entries = select g (Option.map (fun e -> [ e ]) scheme) in
  Format.printf "fault campaign on %a@." Graph.pp g;
  Printf.printf
    "link failure rates: %s; %d fault seed(s); %d sampled pairs; retries %d\n\n"
    (String.concat ", "
       (List.map (fun r -> Printf.sprintf "%g%%" (100.0 *. r)) rates))
    fault_seeds pairs retries;
  Printf.printf "%-20s %6s  %9s %9s  %10s %10s\n" "scheme" "f%" "bare-del"
    "res-del" "bare-infl" "res-infl";
  Printf.printf "%s\n" (String.make 72 '-');
  let apsp = apsp_oracle ~caller:"faults oracle" g in
  let sampled = Scheme.sample_pairs ~seed ~n:(Graph.n g) ~count:pairs in
  let zero_fault_ok = ref true in
  List.iter
    (fun (e : Catalog.entry) ->
      match build ~seed ~eps g e with
      | Error m -> Printf.printf "%-20s skipped: %s\n" e.Catalog.id m
      | Ok (inst, _) ->
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
  if strict && not !zero_fault_ok then
    die "a scheme failed to deliver every pair on the healthy network"
  else 0

let faults_cmd =
  let scheme_opt =
    Arg.(
      value
      & opt (some scheme) None
      & info [ "scheme"; "s" ] ~docv:"ID"
          ~doc:"Restrict the campaign to one scheme (default: whole catalog).")
  in
  let rates =
    Arg.(
      value
      & opt (list fraction) [ 0.01; 0.02; 0.05 ]
      & info [ "rates" ] ~docv:"R1,R2,..."
          ~doc:"Link failure rates (fractions of edges down).")
  in
  let fault_seeds =
    Arg.(
      value & opt (at_least 1) 3
      & info [ "fault-seeds" ] ~docv:"S"
          ~doc:"Number of independent fault plans per rate.")
  in
  let retries =
    Arg.(
      value & opt (at_least 0) 3
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
  cmd "faults" ~doc:"Run a fault-injection campaign over the scheme catalog"
    (with_graph
       Term.(
         const faults_cmd_impl $ scheme_opt $ seed_arg $ eps_arg
         $ pairs_arg ~min:1 500 $ rates
         $ fault_rate_arg "vertex-rate" ~default:0.0
             ~doc:"Vertex crash rate applied alongside every link rate."
         $ fault_seeds $ retries $ strict))

(* ------------------------------------------------------------------ *)
(* oracle                                                              *)
(* ------------------------------------------------------------------ *)

let oracle kind k seed pairs query g =
  Option.iter (fun (u, v) -> check_endpoints g [ u; v ]) query;
  let name, q, total =
    match kind with
    | "tz" ->
      let o = Cr_baselines.Tz_oracle.preprocess ~seed g ~k in
      ( Printf.sprintf "tz-oracle k=%d (stretch %d)" k ((2 * k) - 1),
        Cr_baselines.Tz_oracle.query o,
        Cr_baselines.Tz_oracle.total_words o )
    | "pr" ->
      if not (Graph.is_unit_weighted g) then
        die "the PR (2,1) oracle requires an unweighted graph";
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
    let apsp = apsp_oracle ~caller:"query oracle" g in
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
  let k = Arg.(value & opt (at_least 1) 2 & info [ "k" ] ~docv:"K") in
  let query =
    Arg.(
      value
      & opt (some (pair ~sep:',' int int)) None
      & info [ "query" ] ~docv:"U,V" ~doc:"Print one distance estimate.")
  in
  cmd "oracle" ~doc:"Build a distance oracle and query it"
    (with_graph
       Term.(
         const oracle $ kind $ k $ seed_arg
         $ pairs_arg ~min:0 1000 ~docv:"P"
             ~doc:"Sampled pairs for the stretch check ($(b,0) skips it)."
         $ query))

(* ------------------------------------------------------------------ *)
(* spanner                                                             *)
(* ------------------------------------------------------------------ *)

let spanner algo kk out g =
  if not (Bfs.is_connected g) then die "graph must be connected";
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
  let kk = Arg.(value & opt (at_least 1) 2 & info [ "k" ] ~docv:"K") in
  cmd "spanner" ~doc:"Compute a (2k-1)-spanner of a graph"
    (with_graph
       Term.(const spanner $ algo $ kk $ output_arg ~doc:"Write the spanner."))

let main_cmd =
  Cmd.group
    (Cmd.info "cr_cli" ~version:"1.0.0"
       ~doc:"Compact routing schemes of Roditty and Tov (PODC'15)"
       ~exits:[ success; failure; divergence; usage; bug ])
    [
      generate_cmd; schemes_cmd; route_cmd; trace_cmd; stats_cmd; table1_cmd;
      throughput_cmd; serve_cmd; compile_cmd; load_cmd; delta_cmd; faults_cmd;
      oracle_cmd; spanner_cmd;
    ]

(* Cmdliner turns a bad argument into exit 124. An I/O failure escaping a
   command (an unwritable output path, a graph path that is a directory)
   is a runtime failure; anything else is a bug. *)
let () =
  match Cmd.eval' ~catch:false main_cmd with
  | code -> exit code
  | exception Sys_error m -> die "%s" m
  | exception Unix.Unix_error (err, fn, arg) ->
    die "%s %s: %s" fn arg (Unix.error_message err)
  | exception e ->
    Printf.eprintf "cr_cli: internal error, uncaught exception:\n%s\n%s%!"
      (Printexc.to_string e)
      (Printexc.get_backtrace ());
    exit Cmd.Exit.internal_error
