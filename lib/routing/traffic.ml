(* The k-th query is a pure function of (seed, k) through Fault's
   SplitMix64 hash, so any point of the schedule can be recomputed
   without replaying the stream. Tags keep the source / destination /
   arrival-jitter streams independent. *)
let tag_src = 1
let tag_dst = 2
let tag_jitter = 3

type t = {
  n : int;
  seed : int;
  zipf : float;
  rate : float;
  cdf : float array;  (* cdf.(r) = P(rank <= r); cdf.(n-1) = 1.0 *)
  src_of_rank : int array;
  dst_of_rank : int array;
  rank_of_src : int array;  (* inverse of src_of_rank, for the tests *)
}

let permutation st n =
  let p = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- tmp
  done;
  p

let create ?(zipf = 1.0) ?(rate = infinity) ~seed ~n () =
  if n < 2 then invalid_arg "Traffic.create: need at least two vertices";
  if not (zipf >= 0.0) then invalid_arg "Traffic.create: zipf must be >= 0";
  if not (rate > 0.0) then invalid_arg "Traffic.create: rate must be > 0";
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for r = 0 to n - 1 do
    acc := !acc +. (float_of_int (r + 1) ** -.zipf);
    cdf.(r) <- !acc
  done;
  let total = !acc in
  for r = 0 to n - 1 do
    cdf.(r) <- cdf.(r) /. total
  done;
  cdf.(n - 1) <- 1.0;
  (* Independent popularity permutations: a hot source is not thereby a hot
     destination. Seeded Random.State, so the spec is a pure function of
     the seed. *)
  let src_of_rank = permutation (Random.State.make [| seed; 0x7473 |]) n in
  let dst_of_rank = permutation (Random.State.make [| seed; 0x7464 |]) n in
  let rank_of_src = Array.make n 0 in
  Array.iteri (fun r v -> rank_of_src.(v) <- r) src_of_rank;
  { n; seed; zipf; rate; cdf; src_of_rank; dst_of_rank; rank_of_src }

let n t = t.n
let seed t = t.seed
let zipf t = t.zipf
let rate t = t.rate
let rank_of_source t v = t.rank_of_src.(v)

(* Smallest rank r with u < cdf.(r): binary search over the prefix sums. *)
let rank_of t u =
  let lo = ref 0 and hi = ref (t.n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if u < t.cdf.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

let pair t k =
  let u = t.src_of_rank.(rank_of t (Fault.u01 (Fault.hash4 t.seed tag_src k 0))) in
  let rec draw attempt =
    if attempt < 32 then begin
      let v = t.dst_of_rank.(rank_of t (Fault.u01 (Fault.hash4 t.seed tag_dst k attempt))) in
      if v <> u then (u, v) else draw (attempt + 1)
    end
    else begin
      (* Degenerate skew (tiny n under a heavy exponent) can hash to the
         same hot vertex 32 times; probe deterministically from the last
         drawn rank — n >= 2 guarantees termination. *)
      let r0 = rank_of t (Fault.u01 (Fault.hash4 t.seed tag_dst k 32)) in
      let rec probe i =
        let v = t.dst_of_rank.((r0 + i) mod t.n) in
        if v <> u then (u, v) else probe (i + 1)
      in
      probe 1
    end
  in
  draw 0

let arrival t k =
  if t.rate = infinity then 0.0
  else (float_of_int k +. Fault.u01 (Fault.hash4 t.seed tag_jitter k 0)) /. t.rate

let pairs t ~count = List.init count (pair t)

type churn_event = { at_query : int; plan : Fault.plan option }

let churn_cycle g ~seed ~every ~budget ~link_rate ~vertex_rate =
  if every <= 0 then []
  else begin
    let events = ref [] in
    let i = ref 0 in
    while (!i + 1) * every < budget do
      let at_query = (!i + 1) * every in
      let plan =
        if !i mod 2 = 0 then
          Some
            (Fault.compile
               (Fault.spec ~seed:(seed + (7919 * !i))
                  ~link_failure_rate:link_rate ~vertex_failure_rate:vertex_rate
                  ())
               g)
        else None
      in
      events := { at_query; plan } :: !events;
      incr i
    done;
    List.rev !events
  end

(* --- topology churn ----------------------------------------------------

   A [topo_event] changes the graph itself, not just a fault overlay. The
   ops are generated lazily against whatever graph is current when the
   event fires — with several events in flight, each delta must be valid
   against the previous repair's output, not the original graph. *)

type topo_event = {
  at_query : int;
  ops_of : Cr_graph.Graph.t -> Cr_graph.Graph.delta_op list;
}

let topo_cycle ~seed ~every ~budget ~ops =
  if every <= 0 || ops <= 0 then []
  else begin
    let events = ref [] in
    let i = ref 0 in
    while (!i + 1) * every < budget do
      let at_query = (!i + 1) * every in
      let s = seed + (7919 * !i) in
      events := { at_query; ops_of = (fun g -> Cr_graph.Delta.random ~seed:s ~size:ops g) } :: !events;
      incr i
    done;
    List.rev !events
  end

(* What a repairer hands back: the post-delta world, atomically. The serve
   loop installs all four fields between two chunks, so every query
   evaluates against exactly one epoch's (graph, instances, apsp). *)
type swap = {
  sw_graph : Cr_graph.Graph.t;
  sw_instances : Scheme.instance list;
  sw_apsp : Cr_graph.Apsp.t;
  sw_wall : float;      (* seconds the repair proper took *)
  sw_full_rebuild : bool;
  sw_reused : int;      (* substrate structures carried across the delta *)
  sw_dropped : int;
}

type segment = {
  plan : Fault.plan option;
  pairs : (int * int) list;
  eval : Scheme.eval;
}

type served = {
  instance : Scheme.instance;
  segments : segment list;
}

type epoch = {
  index : int;
  started_at : int;  (* first query index of this epoch *)
  ops : Cr_graph.Graph.delta_op list;  (* the delta that opened it; [] for epoch 0 *)
  repair_wall : float;   (* repairer-reported rebuild seconds; 0 for epoch 0 *)
  blackout : float;      (* seconds the loop was blocked inside the repairer *)
  full_rebuild : bool;
  reused : int;
  dropped : int;
  stale_queries : int;
      (* queries answered on the pre-swap tables while the repair ran *)
  stale_eval : Scheme.eval option;
      (* their aggregate evaluation: +res-wrapped old instances, old apsp,
         removed links failed — the delivery-during-repair measurement *)
  graph : Cr_graph.Graph.t;
  apsp : Cr_graph.Apsp.t;
  served : served list;  (* per-instance segments of this epoch *)
}

type report = {
  served : served list;
  epochs : epoch list;
  routed : int;
  wall : float;
  rps : float;
  verdicts : (string * int) list;
  max_lag : float;
}

let serve ?pool ?(churn = []) ?(topo = []) ?repairer ?(chunk = 256)
    ?(pace = true) ?on_window t ~budget ~instances ~apsp =
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let insts = ref (Array.of_list instances) in
  let ns = Array.length !insts in
  if ns = 0 then invalid_arg "Traffic.serve: need at least one instance";
  if budget < 0 then invalid_arg "Traffic.serve: negative budget";
  if chunk < 1 then invalid_arg "Traffic.serve: chunk must be >= 1";
  let churn =
    List.sort
      (fun (a : churn_event) b -> Int.compare a.at_query b.at_query)
      churn
    |> List.filter (fun (ev : churn_event) ->
           ev.at_query > 0 && ev.at_query < budget)
  in
  let topo =
    List.sort (fun (a : topo_event) b -> Int.compare a.at_query b.at_query) topo
    |> List.filter (fun (ev : topo_event) ->
           ev.at_query > 0 && ev.at_query < budget)
  in
  let repairer =
    match repairer with
    | Some f -> f
    | None ->
      if topo <> [] then
        invalid_arg "Traffic.serve: topology churn requires a repairer";
      fun _ _ -> invalid_arg "Traffic.serve: no repairer"
  in
  let verdict_counts = Array.make (Array.length Port_model.verdict_classes) 0 in
  (* Per-instance accumulators: the open segment is a reversed list of
     evaluated chunks; a churn boundary closes it (concatenating chunks in
     chronological order, so the segment eval is bit-identical to one batch
     over the segment's whole pair sequence). *)
  let seg_plan = ref None in
  let seg_pairs = Array.make ns [] in
  let seg_evals = Array.make ns [] in
  let closed = Array.make ns [] in
  let close_segments () =
    for i = 0 to ns - 1 do
      if seg_evals.(i) <> [] then begin
        closed.(i) <-
          {
            plan = !seg_plan;
            pairs = List.concat (List.rev seg_pairs.(i));
            eval = Scheme.concat_evals (List.rev seg_evals.(i));
          }
          :: closed.(i);
        seg_pairs.(i) <- [];
        seg_evals.(i) <- []
      end
    done
  in
  let t0 = Unix.gettimeofday () in
  let max_lag = ref 0.0 in
  let routed = ref 0 in
  let pending_churn = ref churn in
  let pending_topo = ref topo in
  let k = ref 0 in
  (* Per-epoch bookkeeping. Epoch 0 is the pre-churn world; every topo
     event closes the current epoch and opens the next with the repaired
     (graph, instances, apsp) triple installed between two chunks. *)
  let cur_graph = ref (!insts).(0).Scheme.graph in
  let cur_apsp = ref apsp in
  let epochs = ref [] in
  let ep_index = ref 0 and ep_start = ref 0 in
  let ep_ops = ref [] and ep_repair = ref 0.0 and ep_blackout = ref 0.0 in
  let ep_full = ref false and ep_reused = ref 0 and ep_dropped = ref 0 in
  let ep_stale_q = ref 0 and ep_stale = ref None in
  let close_epoch () =
    close_segments ();
    let served_now =
      Array.to_list
        (Array.mapi
           (fun i inst -> { instance = inst; segments = List.rev closed.(i) })
           !insts)
    in
    Array.fill closed 0 ns [];
    epochs :=
      {
        index = !ep_index;
        started_at = !ep_start;
        ops = !ep_ops;
        repair_wall = !ep_repair;
        blackout = !ep_blackout;
        full_rebuild = !ep_full;
        reused = !ep_reused;
        dropped = !ep_dropped;
        stale_queries = !ep_stale_q;
        stale_eval = !ep_stale;
        graph = !cur_graph;
        apsp = !cur_apsp;
        served = served_now;
      }
      :: !epochs
  in
  while !k < budget do
    (* Topology churn first: a due event closes the epoch, runs the repair
       while overdue queries are answered on the (+res-wrapped) old tables,
       then hot-swaps the repaired world. Supersedes any fault-churn
       boundary falling inside the repair window. *)
    let rec apply_topo () =
      match !pending_topo with
      | ev :: rest when ev.at_query <= !k ->
        pending_topo := rest;
        close_epoch ();
        let ops = ev.ops_of !cur_graph in
        let tr0 = Unix.gettimeofday () in
        let sw = repairer !cur_graph ops in
        let blackout = Unix.gettimeofday () -. tr0 in
        if List.length sw.sw_instances <> ns then
          invalid_arg
            "Traffic.serve: repairer must return one instance per served one";
        (* Staleness window: the queries that piled up while the repair
           ran are served on the old instances, wrapped in the resilience
           ladder, with the delta's removed links failed — measured
           against the old apsp. Unpaced runs take one representative
           round of chunks instead of a wall-clock backlog. *)
        let removed =
          List.filter_map
            (function Cr_graph.Graph.Remove (u, v) -> Some (u, v) | _ -> None)
            ops
        in
        let stale_plan =
          if removed = [] then None
          else Some (Fault.of_failures !cur_graph ~links:removed ~vertices:[])
        in
        let due =
          if t.rate < infinity then begin
            let elapsed = Unix.gettimeofday () -. t0 in
            let rec count j =
              if j < budget && arrival t j < elapsed then count (j + 1) else j
            in
            max (count !k - !k) ns
          end
          else min (ns * chunk) (budget - !k)
        in
        let due = min due (budget - !k) in
        let stale_q = ref 0 and stale_ev = ref None in
        if due > 0 then begin
          let wrapped =
            Array.map
              (fun i -> Resilient.instance (Resilient.wrap i))
              !insts
          in
          let bufs = Array.make ns [] in
          for q = !k + due - 1 downto !k do
            bufs.(q mod ns) <- pair t q :: bufs.(q mod ns)
          done;
          let evals = ref [] in
          for i = 0 to ns - 1 do
            if bufs.(i) <> [] then
              evals :=
                Scheme.evaluate_batch ~pool ?faults:stale_plan ~fast:true
                  ~verdicts:verdict_counts wrapped.(i) !cur_apsp bufs.(i)
                :: !evals
          done;
          stale_ev := Some (Scheme.concat_evals (List.rev !evals));
          stale_q := due;
          routed := !routed + due;
          k := !k + due
        end;
        (* Hot swap: all of (graph, instances, apsp) change together. *)
        insts := Array.of_list sw.sw_instances;
        cur_graph := sw.sw_graph;
        cur_apsp := sw.sw_apsp;
        incr ep_index;
        ep_start := !k;
        ep_ops := ops;
        ep_repair := sw.sw_wall;
        ep_blackout := blackout;
        ep_full := sw.sw_full_rebuild;
        ep_reused := sw.sw_reused;
        ep_dropped := sw.sw_dropped;
        ep_stale_q := !stale_q;
        ep_stale := !stale_ev;
        apply_topo ()
      | _ -> ()
    in
    apply_topo ();
    (* Apply every churn event due at this index; each swap closes the open
       segments so per-segment evals stay pinned to one plan. *)
    let rec apply () =
      match !pending_churn with
      | (ev : churn_event) :: rest when ev.at_query <= !k ->
        close_segments ();
        seg_plan := ev.plan;
        pending_churn := rest;
        apply ()
      | _ -> ()
    in
    apply ();
    if !k >= budget then ()
    else begin
    let next_boundary =
      match !pending_churn with
      | [] -> budget
      | (ev : churn_event) :: _ -> ev.at_query
    in
    let next_boundary =
      match !pending_topo with
      | [] -> next_boundary
      | ev :: _ -> min next_boundary ev.at_query
    in
    let k1 = min next_boundary (min budget (!k + (chunk * ns))) in
    (* Open-loop pacing: sleep until the window's first query is due. We
       never sleep to let a lagging server catch up — lag is recorded, not
       absorbed. *)
    if pace && t.rate < infinity then begin
      let wait = arrival t !k -. (Unix.gettimeofday () -. t0) in
      if wait > 0.0 then Unix.sleepf wait
    end;
    (* Round-robin dispatch: query q goes to instance q mod ns, each
       instance's pairs kept in arrival order. *)
    let bufs = Array.make ns [] in
    for q = k1 - 1 downto !k do
      bufs.(q mod ns) <- pair t q :: bufs.(q mod ns)
    done;
    for i = 0 to ns - 1 do
      if bufs.(i) <> [] then begin
        let ev =
          Scheme.evaluate_batch ~pool ?faults:!seg_plan ~fast:true
            ~verdicts:verdict_counts (!insts).(i) !cur_apsp bufs.(i)
        in
        seg_pairs.(i) <- bufs.(i) :: seg_pairs.(i);
        seg_evals.(i) <- ev :: seg_evals.(i)
      end
    done;
    routed := !routed + (k1 - !k);
    k := k1;
    let elapsed = Unix.gettimeofday () -. t0 in
    if t.rate < infinity then begin
      let lag = elapsed -. arrival t (k1 - 1) in
      if lag > !max_lag then max_lag := lag
    end;
    (match on_window with
    | Some f -> f ~routed:!routed ~elapsed
    | None -> ())
    end
  done;
  close_epoch ();
  let epochs = List.rev !epochs in
  let wall = Unix.gettimeofday () -. t0 in
  {
    served = List.concat_map (fun (e : epoch) -> e.served) epochs;
    epochs;
    routed = !routed;
    wall;
    rps = (if wall > 0.0 then float_of_int !routed /. wall else 0.0);
    verdicts =
      Array.to_list
        (Array.mapi
           (fun c name -> (name, verdict_counts.(c)))
           Port_model.verdict_classes);
    max_lag = !max_lag;
  }
