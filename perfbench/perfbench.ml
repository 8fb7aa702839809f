(* Stand-alone benchmark of the compact-routing stack.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 --out DIR
                   [--tiny]

   One run is one workload at one seed. Every workload goes through the
   same deployment path — generate the graph, build its schemes on one
   shared substrate, save each snapshot and load it back with checksum
   verification — several times, and reports the median. After an untimed
   warm-up the first set-up's loaded instances serve a closed loop for
   [--seconds], in slices with the other set-ups between them; a traced
   run then adds an open loop at half the closed-loop capacity. Last comes
   a topology-churn run through [Traffic.serve] with [Catalog.repair] as
   the repairer. Every answer is checked.

   The last line on stdout is one JSON object with the keys [correct],
   [attempted], [failed] and [metrics]. With [--trace 0] the metrics are
   the end-to-end ones. With [--trace 1] they are the per-layer ones,
   measured with Telemetry on and a span around every call into a layer;
   the spans and the Telemetry dump go to [DIR/trace-*.jsonl]. Why each
   workload exists and which layer moves which end-to-end metric is
   written down in perfbench/README.md and perfbench/layers.json. *)

open Cr_graph
open Cr_routing
open Cr_core

(* ------------------------------------------------------------------ *)
(* Clock, samples, spans                                               *)
(* ------------------------------------------------------------------ *)

(* Nanosecond monotonic clock: single compiled-plane routes take a few
   microseconds, below what a microsecond wall clock resolves. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let secs_of_ns d = float_of_int d *. 1e-9

module Samples = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = Array.make 4096 0; len = 0 }

  let add s x =
    if s.len = Array.length s.a then begin
      let a = Array.make (2 * s.len) 0 in
      Array.blit s.a 0 a 0 s.len;
      s.a <- a
    end;
    s.a.(s.len) <- x;
    s.len <- s.len + 1

  let sorted s =
    let a = Array.sub s.a 0 s.len in
    Array.sort compare a;
    a
end

(* Nearest-rank quantile of a sorted array of nanoseconds, in µs. *)
let quantile_us sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let i = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    float_of_int sorted.(max 0 (min (n - 1) i)) /. 1e3

let median = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let sum = List.fold_left ( +. ) 0.0

let mean l = if l = [] then 0.0 else sum l /. float_of_int (List.length l)

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)
(* ------------------------------------------------------------------ *)

(* A shared host runs the same code 10-30% slower for stretches of
   seconds to minutes, and that moves every timing of a run together. So each
   timed phase is preceded by a fixed kernel of this file's own code — a
   pointer chase through 8 MB, hashing and a sort of fresh boxed values,
   none of it the library's — and followed by it again, and the phase's
   wall times are reported multiplied by [calib_ref_s] over the mean of
   the two kernel walls: seconds on a host running the kernel in
   [calib_ref_s]. The raw kernel walls are the per-layer [host.calib_ms],
   so any figure can be turned back into plain seconds. *)
let calib_ref_s = 0.02

(* A kernel reading younger than this is reused: the phase after one
   phase starts from the reading that closed it. *)
let calib_fresh_ns = 250_000_000

let calib_chain =
  lazy
    (let size = 1 lsl 20 in
     let perm = Array.init size Fun.id in
     let s = ref 0x2545F491 in
     for i = size - 1 downto 1 do
       s := ((!s * 1103515245) + 12345) land 0x3fffffff;
       let j = !s mod (i + 1) in
       let t = perm.(i) in
       perm.(i) <- perm.(j);
       perm.(j) <- t
     done;
     let next = Array.make size 0 in
     for i = 0 to size - 1 do
       next.(perm.(i)) <- perm.((i + 1) mod size)
     done;
     next)

let calib_kernel () =
  let next = Lazy.force calib_chain in
  let p = ref 0 in
  for _ = 1 to 200_000 do
    p := next.(!p)
  done;
  let h = Hashtbl.create 4096 in
  for i = 0 to 60_000 do
    Hashtbl.replace h ((i * 7919) land 8191) (i, !p)
  done;
  let l = List.init 40_000 (fun i -> ((i * 40503) + !p) land 0xffff) in
  let l = List.sort Int.compare l in
  ignore (Sys.opaque_identity (Hashtbl.length h + List.hd l))

let calib_walls = ref []
let last_calib = ref None

(* The kernel wall now: the fastest of three kernel runs, so a single
   preemption does not set it. *)
let kernel_wall () =
  match !last_calib with
  | Some (at, wall) when now_ns () - at < calib_fresh_ns -> wall
  | _ ->
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = now_ns () in
      calib_kernel ();
      best := Float.min !best (secs_of_ns (now_ns () - t0))
    done;
    calib_walls := !best :: !calib_walls;
    last_calib := Some (now_ns (), !best);
    !best

(* [calibrated f] is [f ()] and the host factor over it. *)
let calibrated f =
  let before = kernel_wall () in
  let r = f () in
  let after = kernel_wall () in
  (r, calib_ref_s /. (0.5 *. (before +. after)))

let tracing = ref false

type span = {
  sp_name : string;
  sp_id : int;
  sp_parent : int;
  sp_start : int;
  mutable sp_end : int;
}

let spans = ref []
let open_spans = ref []

(* [measure name f] is [f ()] with its wall time in seconds. In a traced
   run it also records a span, parented to the enclosing one. *)
let measure name f =
  let t0 = now_ns () in
  if not !tracing then begin
    let r = f () in
    (r, secs_of_ns (now_ns () - t0))
  end
  else begin
    let sp =
      {
        sp_name = name;
        sp_id = List.length !spans;
        sp_parent = (match !open_spans with p :: _ -> p.sp_id | [] -> -1);
        sp_start = t0;
        sp_end = t0;
      }
    in
    spans := sp :: !spans;
    open_spans := sp :: !open_spans;
    let r = f () in
    sp.sp_end <- now_ns ();
    open_spans := List.tl !open_spans;
    (r, secs_of_ns (sp.sp_end - t0))
  end

(* ------------------------------------------------------------------ *)
(* Correctness accounting and metrics                                  *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0

(* One correctness gate; [count_routes] accounts for single queries. *)
let check what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    if !failed <= 20 then Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

let count_routes what ~routed ~undelivered =
  attempted := !attempted + routed;
  failed := !failed + undelivered;
  if undelivered > 0 then
    Printf.eprintf "perfbench: %s: %d of %d queries undelivered\n%!" what
      undelivered routed

let e2e = ref []
let layer = ref []
let put tbl name unit v = tbl := (name, unit, v) :: !tbl

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type workload = {
  name : string;
  n : int;
  weighted : bool;  (** uniform weights in [1, 8], else unit weights *)
  lazy_n : int;  (** [CR_RT_LAZY_N] for the run *)
  schemes : string list;
  repaired : string list;  (** the schemes the churn leg serves and repairs *)
  setups : int;  (** timed set-ups per run, and closed-loop slices *)
  zipf : float;  (** query popularity exponent, closed loop and churn *)
  epochs : int;  (** topology deltas in the churn leg *)
  repeats : int;  (** timed replays of each epoch's repair *)
  epoch_queries : int;
  warmup : int;  (** untimed queries before the closed loop *)
}

(* The schemes every workload builds: per-scheme layer metrics are
   reported for these, so they exist on every workload. *)
let layer_schemes = [ "tz-k3"; "rt-5eps"; "rt-4km7-k3" ]

let catalog_ids = List.map (fun (e : Catalog.entry) -> e.Catalog.id) Catalog.all

let workloads =
  [
    (* rt-* past the lazy threshold: on-demand Lemma 7/8 stores and
       cluster trees on the forwarding path, on a weighted graph. Its churn
       leg repairs the lazy-regime instances. *)
    { name = "serve-wglp2k"; n = 2000; weighted = true; lazy_n = 1000;
      schemes = layer_schemes; repaired = layer_schemes; setups = 5;
      zipf = 1.0; epochs = 3; repeats = 3; epoch_queries = 600; warmup = 300_000 };
    (* All thirteen catalog entries, eager stores, uniform queries. Its
       churn leg repairs the ten entries no other workload repairs. *)
    { name = "catalog-glp400"; n = 400; weighted = false; lazy_n = 10_000;
      schemes = catalog_ids;
      repaired = List.filter (fun id -> not (List.mem id layer_schemes)) catalog_ids;
      setups = 5; zipf = 0.0; epochs = 3; repeats = 3; epoch_queries = 2600;
      warmup = 100_000 };
  ]

(* The self-check size: same phases, seconds instead of a minute. *)
let tiny w =
  let n = if w.lazy_n < w.n then 400 else 200 in
  { w with n; lazy_n = (if w.lazy_n < w.n then n / 4 else w.lazy_n);
    setups = 1; epochs = 1; repeats = 1; epoch_queries = 120; warmup = 2000 }

let eps = 0.5

(* A route slower than this left the compiled fast path (lazy stores,
   cluster-tree walks) or was hit by a collection. *)
let slow_threshold_ns = 50_000

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* The deployed system is fixed per workload: one GLP graph, one build of
   each scheme and one script of topology deltas, all from [system_seed].
   The run's seed draws what users send it: the query streams and the
   sampled check sets. Centre sampling alone moves table sizes by 10-20%
   between build seeds at these sizes, and one delta can cost twice
   another to repair, so seed-dependent builds or deltas would make the
   spread between seeds measure the sampler, not the program. *)
let system_seed = 1

let generate w =
  let g = Generators.glp ~seed:system_seed w.n in
  let g =
    if w.weighted then
      Generators.with_random_weights ~seed:system_seed ~lo:1.0 ~hi:8.0 g
    else g
  in
  Graph.pack g

(* ------------------------------------------------------------------ *)
(* Set-up: generate, build, save, load                                 *)
(* ------------------------------------------------------------------ *)

type timing = {
  id : string;
  build_s : float;
  build_alloc_mb : float;
  save_s : float;
  load_s : float;
  map_s : float;  (** load without the checksum pass; traced runs only *)
  bytes : int;
}

type built = {
  entry : Catalog.entry;
  inst : Scheme.instance;  (** the loaded instance, the one served *)
  bound : float * float;
  t : timing;
}

(* What a set-up cost; kept for every set-up of a run. *)
type setup_times = { gen_s : float; wall : float; timings : timing list }

(* The set-up that is served; only the last one stays alive. *)
type setup = {
  g : Graph.t;
  sub : Substrate.t;
  built : built list;
  times : setup_times;
  hits : int;
  lookups : int;  (** substrate lookups made by the builds *)
}

(* Each step — the graph, then each scheme's build, save and load — is
   bracketed by host-factor readings on its own, so the set-up's figures
   follow the host's speed within the set-up too. Also returns the plain
   walls. *)
let setup_once w ~seed ~entries ~dir =
  Unix.mkdir dir 0o755;
  let (g, gen_raw), fg = calibrated (fun () -> measure "graph.gen" (fun () -> generate w)) in
  let probe = Workload.sampled_pairs ~seed:(seed + 1) ~sources:8 ~per_source:16 g in
  let sub = Substrate.create g in
  let hits = ref 0 and lookups = ref 0 in
  let built =
    List.map
      (fun (e : Catalog.entry) ->
        calibrated @@ fun () ->
        let id = e.Catalog.id in
        let st0 = Substrate.stats sub and a0 = Gc.allocated_bytes () in
        let (fresh, bound), build_s =
          measure ("build." ^ id) (fun () -> e.Catalog.build ~substrate:sub ~seed:system_seed ~eps g)
        in
        let build_alloc_mb = (Gc.allocated_bytes () -. a0) /. 1e6 in
        let st1 = Substrate.stats sub in
        hits := !hits + Substrate.hits st1 - Substrate.hits st0;
        lookups :=
          !lookups + Substrate.hits st1 + Substrate.misses st1
          - Substrate.hits st0 - Substrate.misses st0;
        let want = Scheme.evaluate_sampled fresh probe in
        let saved, save_s =
          measure ("snapshot.save." ^ id) (fun () ->
              Catalog.save_entry ~substrate:sub ~dir ~seed:system_seed ~eps g e)
        in
        let path =
          match saved with
          | Ok p -> p
          | Error err -> failwith (id ^ " save: " ^ Snapshot.error_to_string err)
        in
        let load verify () =
          match Catalog.load_entry ~verify ~path ~seed:system_seed ~eps g e with
          | Ok r -> r
          | Error err -> failwith (id ^ " load: " ^ Snapshot.error_to_string err)
        in
        let (inst, lbound), load_s = measure ("snapshot.load." ^ id) (load true) in
        let map_s =
          if !tracing then begin
            let (mapped, _), t = measure ("snapshot.map." ^ id) (load false) in
            check (id ^ ": mapped snapshot answers like a fresh build")
              (Scheme.evaluate_sampled mapped probe = want);
            t
          end
          else 0.0
        in
        check (id ^ ": loaded snapshot answers like a fresh build")
          (lbound = bound && Scheme.evaluate_sampled inst probe = want);
        { entry = e; inst; bound;
          t = { id; build_s; build_alloc_mb; save_s; load_s; map_s;
                bytes = (Unix.stat path).Unix.st_size } })
      entries
  in
  let times gen_s timings =
    let wall =
      gen_s +. sum (List.map (fun t -> t.build_s +. t.save_s +. t.load_s) timings)
    in
    { gen_s; wall; timings }
  in
  let raw = times gen_raw (List.map (fun (b, _) -> b.t) built) in
  let scaled =
    times (gen_raw *. fg)
      (List.map
         (fun (b, f) ->
           { b.t with build_s = b.t.build_s *. f; save_s = b.t.save_s *. f;
                      load_s = b.t.load_s *. f; map_s = b.t.map_s *. f })
         built)
  in
  ( { g; sub; built = List.map fst built; times = scaled; hits = !hits;
      lookups = !lookups },
    raw )

(* ------------------------------------------------------------------ *)
(* Query legs                                                          *)
(* ------------------------------------------------------------------ *)

type leg = {
  all : Samples.t;  (** per-query latency, ns *)
  per : Samples.t array;  (** the same, per instance *)
  hops : int array;
  words : float array;  (** minor words allocated, per instance *)
  mutable routed : int;
  mutable elapsed : float;
  mutable windows : (int * float * int array * float) list;
      (** [(queries, seconds, sorted latencies, host factor)] of every
          window so far, in plain wall time *)
}

let new_leg ni =
  { all = Samples.create (); per = Array.init ni (fun _ -> Samples.create ());
    hops = Array.make ni 0; words = Array.make ni 0.0; routed = 0;
    elapsed = 0.0; windows = [] }

(* Each slice of a leg is cut into windows of this length. The end-to-end
   figures are medians over windows, so a burst of host noise moves a few
   windows, not the result. *)
let window_s = 0.4

let scale_ns scale x = int_of_float (float_of_int x *. scale)

(* Adds the samples [from, leg.all.len) to [leg] as one window of
   [seconds] with host factor [scale]. *)
let add_window leg ~from ~seconds ~scale =
  let a = Array.sub leg.all.Samples.a from (leg.all.Samples.len - from) in
  Array.sort compare a;
  leg.windows <- (Array.length a, seconds, a, scale) :: leg.windows

(* Medians over windows, host-scaled unless [plain]. *)
let window_rate ?(plain = false) leg =
  median
    (List.map
       (fun (k, d, _, f) -> float_of_int k /. if plain then d else d *. f)
       leg.windows)

let window_quantile_us ?(plain = false) leg p =
  median
    (List.map
       (fun (_, _, a, f) -> quantile_us a p *. if plain then 1.0 else f)
       leg.windows)

let route inst ~src ~dst =
  Scheme.route_fast ~record_path:false ~detect_loops:false inst ~src ~dst

(* Closed loop: one client, the next query leaves when the previous one
   is answered; queries go round-robin over the instances. One call is one
   slice of [seconds], run as windows of about [window_s] each bracketed
   by host-factor readings; a window's latencies are multiplied by its
   factor. Returns the next query index. *)
let closed_slice leg insts traffic ~first ~seconds ~alloc =
  let ni = Array.length insts in
  let undelivered = ref 0 in
  let k = ref first in
  let windows = max 1 (Float.to_int (Float.round (seconds /. window_s))) in
  let width = Float.to_int (seconds /. float_of_int windows *. 1e9) in
  let window () =
    let start = now_ns () in
    let deadline = start + width in
    let last = ref start in
    while !last < deadline do
      let i = !k mod ni in
      let src, dst = Traffic.pair traffic !k in
      let w0 = if alloc then Gc.minor_words () else 0.0 in
      let t0 = now_ns () in
      let o = route insts.(i) ~src ~dst in
      let t1 = now_ns () in
      if alloc then leg.words.(i) <- leg.words.(i) +. (Gc.minor_words () -. w0);
      if not (Port_model.delivered_to o dst) then incr undelivered;
      Samples.add leg.all (t1 - t0);
      Samples.add leg.per.(i) (t1 - t0);
      leg.hops.(i) <- leg.hops.(i) + o.Port_model.hops;
      last := t1;
      incr k
    done;
    secs_of_ns (!last - start)
  in
  for _ = 1 to windows do
    let from = leg.all.Samples.len in
    let base = Array.map (fun s -> s.Samples.len) leg.per in
    let seconds, scale = calibrated window in
    add_window leg ~from ~seconds ~scale;
    Array.iteri
      (fun i s ->
        for j = base.(i) to s.Samples.len - 1 do
          s.Samples.a.(j) <- scale_ns scale s.Samples.a.(j)
        done)
      leg.per;
    leg.elapsed <- leg.elapsed +. seconds
  done;
  let routed = !k - first in
  count_routes "closed loop" ~routed ~undelivered:!undelivered;
  leg.routed <- leg.routed + routed;
  !k

(* Warm-up: [count] untimed queries, so the lazy stores' pair caches are
   at their steady state before timing starts, as on a server that has
   been up a while. On serve-wglp2k the closed-loop rate climbs from
   about 20k to 60k routes/s over the first ~350k queries. *)
let warm_up insts traffic ~first ~count =
  let ni = Array.length insts in
  let undelivered = ref 0 in
  for k = first to first + count - 1 do
    let src, dst = Traffic.pair traffic k in
    if not (Port_model.delivered_to (route insts.(k mod ni) ~src ~dst) dst) then
      incr undelivered
  done;
  count_routes "warm-up" ~routed:count ~undelivered:!undelivered

(* Spin rather than sleep: a sleeping generator wakes late by a few
   hundred microseconds on a busy host, and that lateness would be
   charged to the query. *)
let wait_until t = while now_ns () < t do () done

(* Open loop: query [k] is due at [Traffic.arrival schedule k] whatever
   happened before it; its latency runs from that due time, so a stall is
   charged to every query queued behind it. The pairs continue the closed
   loop's stream from query [first], so both legs see one population.
   Returns the leg and the generator's worst lateness in seconds. Its
   latencies are plain wall times: the schedule runs in real time, so a
   slow host queues queries, and that queueing is what the leg shows. *)
let open_leg insts ~schedule ~traffic ~first ~seconds =
  let ni = Array.length insts in
  let leg = new_leg ni in
  let undelivered = ref 0 and lag = ref 0 in
  let start = now_ns () in
  let stop = int_of_float (seconds *. 1e9) in
  let k = ref 0 in
  let width = int_of_float (window_s *. 1e9) in
  let from = ref (0, start) in
  let cut t =
    let i0, t0 = !from in
    add_window leg ~from:i0 ~seconds:(secs_of_ns (t - t0)) ~scale:1.0;
    from := (!k, t)
  in
  let due () = int_of_float (Traffic.arrival schedule !k *. 1e9) in
  while due () < stop do
    let due = start + due () in
    let i = !k mod ni in
    let src, dst = Traffic.pair traffic (first + !k) in
    wait_until due;
    let t0 = now_ns () in
    let o = route insts.(i) ~src ~dst in
    let t1 = now_ns () in
    lag := max !lag (t0 - due);
    if not (Port_model.delivered_to o dst) then incr undelivered;
    Samples.add leg.all (t1 - due);
    incr k;
    if due - snd !from >= width then cut due
  done;
  if start + stop - snd !from >= width / 2 && !k > fst !from then cut (start + stop);
  count_routes "open loop" ~routed:!k ~undelivered:!undelivered;
  leg.routed <- !k;
  leg.elapsed <- secs_of_ns (now_ns () - start);
  (leg, secs_of_ns !lag)

(* ------------------------------------------------------------------ *)
(* Churn leg                                                           *)
(* ------------------------------------------------------------------ *)

(* The end-to-end churn figures are means over epochs: the deltas differ in
   cost, so a median would jump between epochs with the host's noise. *)
type churn = {
  repair_s : float list;  (** per epoch, fastest replayed [Catalog.repair], host-scaled *)
  blackout_s : float list;  (** plain wall times, from the served run *)
  invalidate_s : float list;  (** traced runs only, like [repair_s] *)
  oracle_s : float list;
  reused : int;
  dropped : int;
  full_rebuilds : int;
  stale_queries : int;
  stale_delivered : int;
}

(* The churn leg serves and repairs the workload's [repaired] instances.
   [Traffic.serve] always sends queries [0, budget) of its stream, so the
   leg's queries are fixed per workload, like its delta script; the seed
   draws the pairs its final check uses. *)
let churn_leg w ~seed (s : setup) =
  let n = Graph.n s.g in
  let served = List.filter (fun b -> List.mem b.entry.Catalog.id w.repaired) s.built in
  let entries = List.map (fun b -> b.entry) served in
  let apsp, oracle0 = measure "apsp" (fun () -> Apsp.compute s.g) in
  let budget = w.epoch_queries * (w.epochs + 1) in
  let traffic = Traffic.create ~zipf:w.zipf ~seed:system_seed ~n () in
  let topo =
    Traffic.topo_cycle ~seed:system_seed ~every:w.epoch_queries ~budget ~ops:4
  in
  let cur_sub = ref s.sub and cur = ref [] in
  let replays = ref [] and oracle_s = ref [ oracle0 ] in
  let repairer _g ops =
    replays := (!cur_sub, ops) :: !replays;
    let r, _ =
      measure "repair" (fun () ->
          Catalog.repair ~entries ~substrate:!cur_sub ~seed:system_seed ~eps ops)
    in
    cur_sub := r.Catalog.substrate;
    cur := r.Catalog.instances;
    let apsp', t = measure "repair.oracle" (fun () -> Apsp.compute r.Catalog.graph) in
    oracle_s := t :: !oracle_s;
    let reused, dropped =
      match r.Catalog.invalidation with
      | Some inv -> (Substrate.reused inv, Substrate.dropped inv)
      | None -> (0, 0)
    in
    { Traffic.sw_graph = r.Catalog.graph;
      sw_instances = List.map (fun (_, i, _) -> i) r.Catalog.instances;
      sw_apsp = apsp'; sw_wall = r.Catalog.wall;
      sw_full_rebuild = r.Catalog.full_rebuild; sw_reused = reused;
      sw_dropped = dropped }
  in
  let instances = List.map (fun b -> b.inst) served in
  (* chunk 16: unpaced, the staleness window is one round of chunks over
     the instances, so the default 256 would swallow a whole epoch. *)
  let report, _ =
    measure "churn" (fun () ->
        Traffic.serve ~topo ~repairer ~chunk:16 ~pace:false traffic ~budget
          ~instances ~apsp)
  in
  let epochs = List.filter (fun (e : Traffic.epoch) -> e.Traffic.index > 0) report.Traffic.epochs in
  check "churn: every delta opened an epoch" (List.length epochs = w.epochs);
  (* Queries outside the repair windows: delivered, and the chunked serve
     evals equal one evaluate_batch per segment. *)
  List.iter
    (fun (ep : Traffic.epoch) ->
      List.iter
        (fun (sv : Traffic.served) ->
          List.iter
            (fun (sg : Traffic.segment) ->
              let ev = sg.Traffic.eval in
              count_routes "churn serve"
                ~routed:(List.length sg.Traffic.pairs)
                ~undelivered:ev.Scheme.failures;
              check "churn: serve equals evaluate_batch"
                (Scheme.evaluate_batch ?faults:sg.Traffic.plan ~fast:true
                   sv.Traffic.instance ep.Traffic.apsp sg.Traffic.pairs
                 = ev))
            sv.Traffic.segments)
        ep.Traffic.served)
    report.Traffic.epochs;
  (* The last repaired world equals a fresh build on the final graph. *)
  let g' = (List.nth report.Traffic.epochs (List.length report.Traffic.epochs - 1)).Traffic.graph in
  let pairs = Workload.sampled_pairs ~seed:(seed + 7) ~sources:8 ~per_source:16 g' in
  let fresh_sub = Substrate.create g' in
  List.iter
    (fun ((e : Catalog.entry), inst, bound) ->
      let fresh, fbound = e.Catalog.build ~substrate:fresh_sub ~seed:system_seed ~eps g' in
      check (e.Catalog.id ^ ": repaired instance answers like a fresh build")
        (fbound = bound
        && Scheme.evaluate_sampled inst pairs = Scheme.evaluate_sampled fresh pairs))
    !cur;
  let stale_queries, stale_delivered =
    List.fold_left
      (fun (q, d) (ep : Traffic.epoch) ->
        match ep.Traffic.stale_eval with
        | Some ev -> (q + ep.Traffic.stale_queries, d + Array.length ev.Scheme.samples)
        | None -> (q, d))
      (0, 0) epochs
  in
  (* Each epoch's repair again, [w.repeats] times from the warm substrate
     it started from ([Catalog.repair] and [Substrate.invalidate] leave
     that handle as it was, so every replay does the same work). The
     epoch's figure is the fastest replay, host-scaled: on a shared host
     noise only ever adds time. *)
  let best_of what f =
    let best = ref infinity in
    for _ = 1 to w.repeats do
      Gc.full_major ();
      let t, scale = calibrated f in
      Printf.printf "perfbench: %s: %.4f s, host factor %.4f\n%!" what t scale;
      best := Float.min !best (t *. scale)
    done;
    !best
  in
  let replayed =
    List.rev_map
      (fun (sub, ops) ->
        let repair_s =
          best_of "repair replay" (fun () ->
              let r, _ =
                measure "repair.replay" (fun () ->
                    Catalog.repair ~entries ~substrate:sub ~seed:system_seed ~eps ops)
              in
              r.Catalog.wall)
        in
        let invalidate_s =
          if !tracing then
            best_of "invalidate replay" (fun () ->
                snd (measure "repair.invalidate" (fun () -> Substrate.invalidate sub ops)))
          else 0.0
        in
        (repair_s, invalidate_s))
      !replays
  in
  {
    repair_s = List.map fst replayed;
    blackout_s = List.map (fun (e : Traffic.epoch) -> e.Traffic.blackout) epochs;
    invalidate_s = List.map snd replayed;
    oracle_s = !oracle_s;
    reused = List.fold_left (fun a (e : Traffic.epoch) -> a + e.Traffic.reused) 0 epochs;
    dropped = List.fold_left (fun a (e : Traffic.epoch) -> a + e.Traffic.dropped) 0 epochs;
    full_rebuilds = List.length (List.filter (fun (e : Traffic.epoch) -> e.Traffic.full_rebuild) epochs);
    stale_queries;
    stale_delivered;
  }

(* ------------------------------------------------------------------ *)
(* One run                                                             *)
(* ------------------------------------------------------------------ *)

let ratio a b = if b = 0.0 then 0.0 else a /. b

let run w ~seed ~seconds ~out =
  Unix.putenv "CR_RT_LAZY_N" (string_of_int w.lazy_n);
  let entries =
    List.map
      (fun id ->
        match Catalog.find id with
        | Some e -> e
        | None -> failwith ("unknown catalog entry " ^ id))
      w.schemes
  in
  List.iter
    (fun id ->
      if not (List.mem id w.schemes) then failwith (w.name ^ " lacks " ^ id))
    layer_schemes;
  let snapdir = Filename.concat out "snap" in
  rm_rf snapdir;
  Unix.mkdir snapdir 0o755;
  at_exit (fun () -> rm_rf snapdir);
  (* [w.setups] timed set-ups. The first is the one served; the others
     run between slices of the closed loop, so the set-up and route
     figures both sample the whole run rather than one stretch of it. *)
  let setups = ref [] in
  let set_up r =
    let dir = Filename.concat snapdir (string_of_int r) in
    let (s, raw), _ = measure "setup" (fun () -> setup_once w ~seed ~entries ~dir) in
    let parts st =
      ( sum (List.map (fun t -> t.build_s) st.timings),
        sum (List.map (fun t -> t.load_s) st.timings) )
    in
    let b, l = parts s.times and rb, rl = parts raw in
    Printf.printf
      "perfbench: set-up %d/%d: %.4f s (build %.4f s, load %.4f s); plain %.4f s \
       (build %.4f s, load %.4f s)\n%!"
      r w.setups s.times.wall b l raw.wall rb rl;
    setups := s.times :: !setups;
    s
  in
  let s = set_up 1 in
  let g = s.g and n = Graph.n s.g in
  Printf.printf "perfbench: %s seed=%d n=%d m=%d schemes=%d setups=%d domains=%d trace=%b\n%!"
    w.name seed n (Graph.m g) (List.length entries) w.setups
    (Pool.domains (Pool.default ())) !tracing;
  (* Graph-shape guard: an Internet-like graph has a small hop diameter;
     a generator that chains its components into a path does not. *)
  let hop_g = if Graph.is_unit_weighted g then g else Graph.unit_weighted g in
  let hops =
    Workload.sampled_pairs ~seed:(seed + 2) ~sources:16 ~per_source:64 hop_g
    |> List.map snd |> Array.of_list
  in
  Array.sort Float.compare hops;
  let hop_q p = hops.(max 0 (int_of_float (Float.ceil (p *. float_of_int (Array.length hops))) - 1)) in
  let hop_limit = 2.0 *. Float.ceil (Float.log2 (float_of_int n)) in
  Printf.printf "perfbench: hop distance p50=%g p90=%g max=%g (p90 limit %g)\n%!"
    (hop_q 0.5) (hop_q 0.9) (hop_q 1.0) hop_limit;
  check "graph shape: p90 hop distance within 2 log2 n" (hop_q 0.9 <= hop_limit);
  (* Stretch on an exact-distance check set, against each proven bound.
     The set is fixed per workload, so [stretch_p99] is deterministic: it
     guards the proven bounds, it does not sample. *)
  let check_pairs =
    Workload.sampled_pairs ~seed:system_seed ~sources:32 ~per_source:64 g
  in
  let evals =
    List.map
      (fun b ->
        let ev = Scheme.evaluate_sampled b.inst check_pairs in
        let alpha, beta = b.bound in
        count_routes "check set" ~routed:(List.length check_pairs)
          ~undelivered:ev.Scheme.failures;
        check
          (Printf.sprintf "%s: stretch within (%g, %g)" b.entry.Catalog.id alpha beta)
          (Scheme.within ev ~alpha ~beta);
        ev)
      s.built
  in
  let stretch_p99 = Scheme.percentile_stretch (Scheme.concat_evals evals) 0.99 in
  (* Query legs. *)
  let insts = Array.of_list (List.map (fun b -> b.inst) s.built) in
  (* Which vertices are popular is part of the deployment, like the graph:
     one ranking from [system_seed]. A ranking puts a few arbitrary
     vertices on top, and how expensive those happen to be moved the
     lazy-regime route rate by 20% between rankings. The run's seed picks
     which queries of that population are sent: [Traffic.pair] is a pure
     function of the query index, so each seed starts at its own offset. *)
  let traffic = Traffic.create ~zipf:w.zipf ~seed:system_seed ~n () in
  let first = seed * 1_000_000_000 in
  Telemetry.set_enabled false;
  warm_up insts traffic ~first ~count:w.warmup;
  let next = ref (first + w.warmup) in
  (* The closed loop runs for [seconds] in [w.setups] slices with a set-up
     after each but the last. A traced run also times an untraced slice
     just before each traced one; together they take the same [seconds],
     and the open loop gets [seconds / 2] after them. Each slice starts
     from a collected heap, so the garbage a set-up leaves is not charged
     to the routes. *)
  let ni = Array.length insts in
  let closed = new_leg ni and plain = new_leg ni in
  let slice_s = seconds /. float_of_int w.setups in
  Telemetry.reset ();
  for r = 1 to w.setups do
    Gc.full_major ();
    if !tracing then begin
      Telemetry.set_enabled false;
      next :=
        closed_slice plain insts traffic ~first:!next ~seconds:(slice_s /. 2.0)
          ~alloc:false;
      Telemetry.set_enabled true;
      let k, _ =
        measure "closed" (fun () ->
            closed_slice closed insts traffic ~first:!next ~seconds:(slice_s /. 2.0)
              ~alloc:true)
      in
      next := k;
      Telemetry.set_enabled false
    end
    else
      next :=
        closed_slice closed insts traffic ~first:!next ~seconds:slice_s ~alloc:false;
    if r < w.setups then begin
      Gc.full_major ();
      ignore (set_up (r + 1))
    end
  done;
  let totals = Telemetry.totals () in
  Printf.printf
    "perfbench: closed loop: %d routes, %.0f routes/s, p99 %.3f us (medians over \
     windows; plain %.0f routes/s, %.3f us)\n%!"
    closed.routed (window_rate closed) (window_quantile_us closed 0.99)
    (window_rate ~plain:true closed)
    (window_quantile_us ~plain:true closed 0.99);
  let setups = !setups in
  let traced =
    if !tracing then begin
      Telemetry.set_enabled true;
      let rps l = float_of_int l.routed /. l.elapsed in
      let overhead = 1.0 -. (rps closed /. rps plain) in
      (* The open loop offers half the untraced closed-loop capacity just
         measured: a server at 50% utilisation, whatever the workload and
         however fast the host is at the moment. Its schedule runs in real
         time, so the capacity is the plain, unscaled one. *)
      let rate = 0.5 *. window_rate ~plain:true plain in
      let schedule = Traffic.create ~zipf:w.zipf ~rate ~seed:(seed + 8) ~n () in
      Gc.full_major ();
      let (opened, max_lag), _ =
        measure "open" (fun () ->
            open_leg insts ~schedule ~traffic ~first:!next ~seconds:(seconds /. 2.0))
      in
      Some (overhead, totals, rate, opened, max_lag)
    end
    else None
  in
  (* Peak RSS of set-up and serving; the churn leg's own peak is a layer
     figure, so repairing does not move the end-to-end one. *)
  let peak_mb () = float_of_int (Mem_probe.peak ()).Mem_probe.bytes /. 1e6 in
  let serve_peak_mb = peak_mb () in
  Gc.full_major ();
  let ch = churn_leg w ~seed s in
  let churn_peak_mb = peak_mb () in
  (* End-to-end metrics. *)
  let med f = median (List.map f setups) in
  (* The set-ups repeat the same deterministic work, so the host's noise
     only adds time, and the first set-up also pays for a cold heap. The
     component figures are, per scheme, the mean of the two fastest
     set-ups, summed over the schemes: in three five-seed probes on a
     shared 2-vCPU VM that spread 0.04-0.08 between seeds, against
     0.02-0.12 for the fastest set-up alone, which carries the error of
     one host-factor reading. [setup_s] is the median set-up. *)
  let fastest2 l =
    match List.sort Float.compare l with a :: b :: _ -> 0.5 *. (a +. b) | l -> mean l
  in
  let typical f = fastest2 (List.map f setups) in
  let of_setups id f = typical (fun st -> f (List.find (fun t -> t.id = id) st.timings)) in
  let per_scheme f = sum (List.map (fun b -> of_setups b.t.id f) s.built) in
  put e2e "setup_s" "s" (med (fun st -> st.wall));
  put e2e "build_s" "s" (per_scheme (fun t -> t.build_s));
  put e2e "peak_rss_mb" "MB" serve_peak_mb;
  put e2e "snapshot_load_s" "s" (per_scheme (fun t -> t.load_s));
  put e2e "snapshot_bits_per_vertex" "bits/vertex"
    (8.0 *. float_of_int (List.fold_left (fun a b -> a + b.t.bytes) 0 s.built)
     /. float_of_int n);
  put e2e "routes_per_s" "1/s" (window_rate closed);
  put e2e "route_p99_us" "us" (window_quantile_us closed 0.99);
  put e2e "stretch_p99" "ratio" stretch_p99;
  put e2e "repair_s" "s" (mean ch.repair_s);
  put e2e "stale_delivered_frac" "ratio"
    (ratio (float_of_int ch.stale_delivered) (float_of_int ch.stale_queries));
  let calib_ms = 1e3 *. median !calib_walls in
  Printf.printf "perfbench: host kernel %.3f ms (median of %d, %.3f-%.3f)\n%!" calib_ms
    (List.length !calib_walls)
    (1e3 *. List.fold_left Float.min infinity !calib_walls)
    (1e3 *. List.fold_left Float.max 0.0 !calib_walls);
  (* Per-layer metrics, from the traced run. *)
  match traced with
  | None -> ()
  | Some (overhead, totals, rate, opened, max_lag) ->
    put layer "pool.domains" "count" (float_of_int (Pool.domains (Pool.default ())));
    put layer "host.calib_ms" "ms" calib_ms;
    put layer "graph.gen_s" "s" (typical (fun st -> st.gen_s));
    put layer "graph.hop_p50" "hops" (hop_q 0.5);
    put layer "graph.hop_p90" "hops" (hop_q 0.9);
    put layer "graph.hop_max" "hops" (hop_q 1.0);
    put layer "substrate.hit_frac" "ratio" (ratio (float_of_int s.hits) (float_of_int s.lookups));
    put layer "build.alloc_mb" "MB" (sum (List.map (fun b -> b.t.build_alloc_mb) s.built));
    List.iteri
      (fun i b ->
        let id = b.entry.Catalog.id in
        if List.mem id layer_schemes then begin
          let of_setups = of_setups id in
          put layer ("build." ^ id ^ ".s") "s" (of_setups (fun b -> b.build_s));
          put layer ("build." ^ id ^ ".alloc_mb") "MB" b.t.build_alloc_mb;
          put layer ("snapshot." ^ id ^ ".save_s") "s" (of_setups (fun b -> b.save_s));
          put layer ("snapshot." ^ id ^ ".load_s") "s" (of_setups (fun b -> b.load_s));
          put layer ("snapshot." ^ id ^ ".map_s") "s" (of_setups (fun b -> b.map_s));
          put layer ("snapshot." ^ id ^ ".bytes") "bytes" (float_of_int b.t.bytes);
          let l = Samples.sorted closed.per.(i) in
          let k = float_of_int (Array.length l) in
          let slow = Array.fold_left (fun a x -> if x > slow_threshold_ns then a + 1 else a) 0 l in
          put layer ("route." ^ id ^ ".p50_us") "us" (quantile_us l 0.50);
          put layer ("route." ^ id ^ ".p99_us") "us" (quantile_us l 0.99);
          put layer ("route." ^ id ^ ".hops") "hops" (ratio (float_of_int closed.hops.(i)) k);
          put layer ("route." ^ id ^ ".alloc_words") "words" (ratio closed.words.(i) k);
          put layer ("route." ^ id ^ ".slow_frac") "ratio" (ratio (float_of_int slow) k)
        end)
      s.built;
    put layer "port_model.table_lookups_per_route" "count"
      (ratio (float_of_int totals.Telemetry.table_lookups) (float_of_int totals.Telemetry.routes));
    put layer "scheme.fast_plane_frac" "ratio"
      (ratio (float_of_int totals.Telemetry.fast_plane_hits) (float_of_int totals.Telemetry.routes));
    put layer "open.offered_per_s" "1/s" rate;
    put layer "open.max_lag_ms" "ms" (1e3 *. max_lag);
    put layer "open.p50_us" "us" (window_quantile_us opened 0.50);
    put layer "open.p99_us" "us" (window_quantile_us opened 0.99);
    let inval = mean ch.invalidate_s in
    put layer "repair.invalidate_s" "s" inval;
    put layer "repair.rebuild_s" "s" (Float.max 0.0 (mean ch.repair_s -. inval));
    put layer "repair.oracle_s" "s" (mean ch.oracle_s);
    put layer "repair.blackout_s" "s" (mean ch.blackout_s);
    put layer "repair.reuse_frac" "ratio"
      (ratio (float_of_int ch.reused) (float_of_int (ch.reused + ch.dropped)));
    put layer "repair.full_rebuilds" "count" (float_of_int ch.full_rebuilds);
    put layer "repair.peak_rss_mb" "MB" churn_peak_mb;
    put layer "serve.stale_queries" "count" (float_of_int ch.stale_queries);
    put layer "trace.overhead_frac" "ratio" overhead

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_string s = Printf.sprintf "%S" s

let write_trace ~out ~workload ~seed =
  let path = Filename.concat out (Printf.sprintf "trace-%s-seed%d.jsonl" workload seed) in
  let oc = open_out path in
  List.iter
    (fun sp ->
      Printf.fprintf oc
        "{\"type\":\"span\",\"name\":%s,\"id\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
        (json_string sp.sp_name) sp.sp_id sp.sp_parent sp.sp_start sp.sp_end)
    (List.rev !spans);
  output_string oc (Telemetry.to_jsonl ());
  close_out oc;
  Printf.printf "perfbench: trace written to %s\n" path

let print_result metrics =
  List.iter
    (fun (name, _, v) ->
      if not (Float.is_finite v) then check (name ^ " is a finite number") false)
    metrics;
  let body =
    List.rev metrics
    |> List.map (fun (name, unit, v) ->
           Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (json_string name)
             (if Float.is_finite v then v else 0.0)
             (json_string unit))
    |> String.concat ", "
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) (max 1 !attempted) !failed body

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and out = ref "" and small = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured legs");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--out", Arg.Set_string out, "DIR directory for snapshots and traces");
      ("--tiny", Arg.Set small, " self-check size");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 --out DIR";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> if !small then tiny w else w
    | None ->
      Printf.eprintf "perfbench: unknown workload %S (have: %s)\n" !workload
        (String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  in
  if !out = "" || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: need --out DIR, --seconds > 0 and --trace 0 or 1";
    exit 2
  end;
  tracing := !trace = 1;
  Telemetry.set_enabled !tracing;
  Telemetry.reset ();
  run w ~seed:!seed ~seconds:!seconds ~out:!out;
  if !tracing then write_trace ~out:!out ~workload:w.name ~seed:!seed;
  print_result (if !tracing then !layer else !e2e);
  exit (if !failed = 0 then 0 else 1)
