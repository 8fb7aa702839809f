(* The observability layer. Everything here is write-mostly from the
   routing hot paths and read-rarely by the CLI / bench dumps, so the
   design goal is: one boolean test per instrumentation point when
   disabled, and no cross-domain synchronization when enabled (shards). *)

let on =
  ref
    (match Sys.getenv_opt "CR_TRACE" with
    | None | Some "" | Some "0" -> false
    | Some _ -> true)

let enabled () = !on

let set_enabled b = on := b

(* --- counters ---------------------------------------------------------- *)

type counters = {
  mutable routes : int;
  mutable hops : int;
  mutable table_lookups : int;
  mutable bounces : int;
  mutable detour_entries : int;
  mutable fast_plane_hits : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable corrupted : int;
  mutable retries : int;
  mutable substrate_hits : int;
  mutable substrate_misses : int;
  mutable substrate_reused_after_delta : int;
  mutable substrate_dropped_after_delta : int;
  mutable lazy_seq_hits : int;
  mutable lazy_seq_misses : int;
  mutable lazy_tree_builds : int;
}

let fresh_counters () =
  {
    routes = 0;
    hops = 0;
    table_lookups = 0;
    bounces = 0;
    detour_entries = 0;
    fast_plane_hits = 0;
    delivered = 0;
    dropped = 0;
    corrupted = 0;
    retries = 0;
    substrate_hits = 0;
    substrate_misses = 0;
    substrate_reused_after_delta = 0;
    substrate_dropped_after_delta = 0;
    lazy_seq_hits = 0;
    lazy_seq_misses = 0;
    lazy_tree_builds = 0;
  }

let null_counters = fresh_counters ()

let zero_counters c =
  c.routes <- 0;
  c.hops <- 0;
  c.table_lookups <- 0;
  c.bounces <- 0;
  c.detour_entries <- 0;
  c.fast_plane_hits <- 0;
  c.delivered <- 0;
  c.dropped <- 0;
  c.corrupted <- 0;
  c.retries <- 0;
  c.substrate_hits <- 0;
  c.substrate_misses <- 0;
  c.substrate_reused_after_delta <- 0;
  c.substrate_dropped_after_delta <- 0;
  c.lazy_seq_hits <- 0;
  c.lazy_seq_misses <- 0;
  c.lazy_tree_builds <- 0

let add_counters ~into c =
  into.routes <- into.routes + c.routes;
  into.hops <- into.hops + c.hops;
  into.table_lookups <- into.table_lookups + c.table_lookups;
  into.bounces <- into.bounces + c.bounces;
  into.detour_entries <- into.detour_entries + c.detour_entries;
  into.fast_plane_hits <- into.fast_plane_hits + c.fast_plane_hits;
  into.delivered <- into.delivered + c.delivered;
  into.dropped <- into.dropped + c.dropped;
  into.corrupted <- into.corrupted + c.corrupted;
  into.retries <- into.retries + c.retries;
  into.substrate_hits <- into.substrate_hits + c.substrate_hits;
  into.substrate_misses <- into.substrate_misses + c.substrate_misses;
  into.substrate_reused_after_delta <-
    into.substrate_reused_after_delta + c.substrate_reused_after_delta;
  into.substrate_dropped_after_delta <-
    into.substrate_dropped_after_delta + c.substrate_dropped_after_delta;
  into.lazy_seq_hits <- into.lazy_seq_hits + c.lazy_seq_hits;
  into.lazy_seq_misses <- into.lazy_seq_misses + c.lazy_seq_misses;
  into.lazy_tree_builds <- into.lazy_tree_builds + c.lazy_tree_builds

let counter_rows c =
  [
    ("routes", c.routes);
    ("hops", c.hops);
    ("table_lookups", c.table_lookups);
    ("bounces", c.bounces);
    ("detour_entries", c.detour_entries);
    ("fast_plane_hits", c.fast_plane_hits);
    ("delivered", c.delivered);
    ("dropped", c.dropped);
    ("corrupted", c.corrupted);
    ("retries", c.retries);
    ("substrate_hits", c.substrate_hits);
    ("substrate_misses", c.substrate_misses);
    ("substrate_reused_after_delta", c.substrate_reused_after_delta);
    ("substrate_dropped_after_delta", c.substrate_dropped_after_delta);
    ("lazy_seq_hits", c.lazy_seq_hits);
    ("lazy_seq_misses", c.lazy_seq_misses);
    ("lazy_tree_builds", c.lazy_tree_builds);
  ]

(* --- histograms -------------------------------------------------------- *)

module Histogram = struct
  (* 120 powers-of-sqrt2 buckets starting at 1ns cover values up to
     2^60 ns ~ 36 years — nothing a routing call can overflow. *)
  let buckets = 120

  let base = 1e-9

  type t = {
    counts : int array;
    mutable n : int;
    mutable sum : float;
    mutable vmax : float;
  }

  let create () = { counts = Array.make buckets 0; n = 0; sum = 0.0; vmax = 0.0 }

  let bucket_of v =
    if not (v > base) then 0
    else
      let k = int_of_float (Float.log2 (v /. base) *. 2.0) in
      if k < 0 then 0 else if k >= buckets then buckets - 1 else k

  let bucket_bounds k =
    ( base *. Float.pow 2.0 (float_of_int k /. 2.0),
      base *. Float.pow 2.0 (float_of_int (k + 1) /. 2.0) )

  let record h v =
    let v = if Float.is_nan v then 0.0 else v in
    let k = bucket_of v in
    h.counts.(k) <- h.counts.(k) + 1;
    h.n <- h.n + 1;
    h.sum <- h.sum +. v;
    if v > h.vmax then h.vmax <- v

  let count h = h.n

  let mean h = if h.n = 0 then 0.0 else h.sum /. float_of_int h.n

  let max_value h = h.vmax

  let percentile h p =
    if h.n = 0 then 0.0
    else if p >= 1.0 then h.vmax
    else begin
      let target = p *. float_of_int h.n in
      let rec go k acc =
        let acc = acc + h.counts.(k) in
        if float_of_int acc >= target || k >= buckets - 1 then k
        else go (k + 1) acc
      in
      Float.min (snd (bucket_bounds (go 0 0))) h.vmax
    end

  let merge_into ~into h =
    for k = 0 to buckets - 1 do
      into.counts.(k) <- into.counts.(k) + h.counts.(k)
    done;
    into.n <- into.n + h.n;
    into.sum <- into.sum +. h.sum;
    if h.vmax > into.vmax then into.vmax <- h.vmax

  let nonempty_buckets h =
    let acc = ref [] in
    for k = buckets - 1 downto 0 do
      if h.counts.(k) > 0 then acc := (k, h.counts.(k)) :: !acc
    done;
    !acc

  let copy h =
    { counts = Array.copy h.counts; n = h.n; sum = h.sum; vmax = h.vmax }

  (* Windowed delta: [a] must be a later capture of the same (merged)
     histogram as [b], so the bucket counts are pointwise >=. The exact
     maximum is not differentiable — a window inherits the max seen up to
     its end, which only over-reports; percentiles stay window-exact. *)
  let sub a b =
    let r = create () in
    for k = 0 to buckets - 1 do
      r.counts.(k) <- a.counts.(k) - b.counts.(k)
    done;
    r.n <- a.n - b.n;
    r.sum <- a.sum -. b.sum;
    r.vmax <- a.vmax;
    r
end

(* --- shards ------------------------------------------------------------ *)

(* One shard per domain, handed out through domain-local storage and
   registered globally so [totals] / [histograms] / [reset] can reach the
   shards of every domain that ever routed — including pool workers that
   have already been joined. *)
type shard = { c : counters; hists : (string, Histogram.t) Hashtbl.t }

let registry_lock = Mutex.create ()

let registry : shard list ref = ref []

let shard_key =
  Domain.DLS.new_key (fun () ->
      let s = { c = fresh_counters (); hists = Hashtbl.create 8 } in
      Mutex.lock registry_lock;
      registry := s :: !registry;
      Mutex.unlock registry_lock;
      s)

let shard () = Domain.DLS.get shard_key

let counters_shard () = (shard ()).c

let with_registry f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) (fun () -> f !registry)

let totals () =
  with_registry (fun shards ->
      let t = fresh_counters () in
      List.iter (fun s -> add_counters ~into:t s.c) shards;
      t)

let histograms () =
  with_registry (fun shards ->
      let merged = Hashtbl.create 8 in
      List.iter
        (fun s ->
          Hashtbl.iter
            (fun name h ->
              match Hashtbl.find_opt merged name with
              | Some m -> Histogram.merge_into ~into:m h
              | None ->
                let m = Histogram.create () in
                Histogram.merge_into ~into:m h;
                Hashtbl.add merged name m)
            s.hists)
        shards;
      Hashtbl.fold (fun name h acc -> (name, h) :: acc) merged []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))

let reset () =
  with_registry
    (List.iter (fun s ->
         zero_counters s.c;
         Hashtbl.reset s.hists))

(* --- snapshots --------------------------------------------------------- *)

let sub_counters a b =
  {
    routes = a.routes - b.routes;
    hops = a.hops - b.hops;
    table_lookups = a.table_lookups - b.table_lookups;
    bounces = a.bounces - b.bounces;
    detour_entries = a.detour_entries - b.detour_entries;
    fast_plane_hits = a.fast_plane_hits - b.fast_plane_hits;
    delivered = a.delivered - b.delivered;
    dropped = a.dropped - b.dropped;
    corrupted = a.corrupted - b.corrupted;
    retries = a.retries - b.retries;
    substrate_hits = a.substrate_hits - b.substrate_hits;
    substrate_misses = a.substrate_misses - b.substrate_misses;
    substrate_reused_after_delta =
      a.substrate_reused_after_delta - b.substrate_reused_after_delta;
    substrate_dropped_after_delta =
      a.substrate_dropped_after_delta - b.substrate_dropped_after_delta;
    lazy_seq_hits = a.lazy_seq_hits - b.lazy_seq_hits;
    lazy_seq_misses = a.lazy_seq_misses - b.lazy_seq_misses;
    lazy_tree_builds = a.lazy_tree_builds - b.lazy_tree_builds;
  }

module Snapshot = struct
  type s = { at : float; c : counters; hists : (string * Histogram.t) list }

  type t = s

  let capture () =
    {
      at = Unix.gettimeofday ();
      c = totals ();
      hists = List.map (fun (n, h) -> (n, Histogram.copy h)) (histograms ());
    }

  let at s = s.at

  let counters s = s.c

  let histogram s name = List.assoc_opt name s.hists

  (* Counters and bucket counts are cumulative, so the per-window view is
     a plain field-wise / bucket-wise difference. A histogram that only
     exists in the later capture diffs against zero. *)
  let since ~earlier later =
    {
      at = later.at;
      c = sub_counters later.c earlier.c;
      hists =
        List.map
          (fun (name, h) ->
            match List.assoc_opt name earlier.hists with
            | None -> (name, Histogram.copy h)
            | Some h0 -> (name, Histogram.sub h h0))
          later.hists;
    }

  let span ~earlier later = later.at -. earlier.at
end

let record_span name seconds =
  if !on then begin
    let s = shard () in
    let h =
      match Hashtbl.find_opt s.hists name with
      | Some h -> h
      | None ->
        let h = Histogram.create () in
        Hashtbl.add s.hists name h;
        h
    in
    Histogram.record h seconds
  end

let now () = Unix.gettimeofday ()

let timed name f =
  if !on then begin
    let t0 = now () in
    let r = f () in
    record_span name (now () -. t0);
    r
  end
  else f ()

(* --- trace events ------------------------------------------------------ *)

type kind = Hop | Deliver | Bounce | Drop | Corrupt | Retry | Detour | End of string

type event = {
  kind : kind;
  at : int;
  port : int;
  header_words : int;
}

(* Single-domain collector: [cr_cli trace] routes one message serially, so
   a plain ref-of-list is enough; the batch engine never emits (workers
   see [tracing () = false]). *)
let trace_buf : event list ref option ref = ref None

let tracing () = !trace_buf <> None

let emit kind ~at ~port ~words =
  match !trace_buf with
  | None -> ()
  | Some buf ->
    buf := { kind; at; port; header_words = words } :: !buf

let with_trace f =
  let was = !on in
  let buf = ref [] in
  trace_buf := Some buf;
  on := true;
  Fun.protect
    ~finally:(fun () ->
      trace_buf := None;
      on := was)
    (fun () ->
      let r = f () in
      (r, List.rev !buf))

(* --- export ------------------------------------------------------------ *)

let kind_name = function
  | Hop -> "hop"
  | Deliver -> "deliver"
  | Bounce -> "bounce"
  | Drop -> "drop"
  | Corrupt -> "corrupt"
  | Retry -> "retry"
  | Detour -> "detour"
  | End _ -> "end"

let event_to_json e =
  let verdict =
    match e.kind with
    | End v -> Printf.sprintf ",\"verdict\":\"%s\"" v
    | _ -> ""
  in
  Printf.sprintf
    "{\"type\":\"event\",\"kind\":\"%s\",\"at\":%d,\"port\":%d,\"header_words\":%d%s}"
    (kind_name e.kind) e.at e.port e.header_words verdict

let hist_summary h =
  ( Histogram.count h,
    Histogram.mean h,
    Histogram.percentile h 0.50,
    Histogram.percentile h 0.90,
    Histogram.percentile h 0.99,
    Histogram.max_value h )

let to_jsonl () =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      Buffer.add_string buf
        (Printf.sprintf "{\"type\":\"counter\",\"name\":\"%s\",\"value\":%d}\n"
           name v))
    (counter_rows (totals ()));
  List.iter
    (fun (name, h) ->
      let n, mean, p50, p90, p99, vmax = hist_summary h in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"type\":\"histogram\",\"name\":\"%s\",\"count\":%d,\"mean_s\":%.9g,\"p50_s\":%.9g,\"p90_s\":%.9g,\"p99_s\":%.9g,\"max_s\":%.9g,\"buckets\":[%s]}\n"
           name n mean p50 p90 p99 vmax
           (String.concat ","
              (List.map
                 (fun (k, c) ->
                   let lo, hi = Histogram.bucket_bounds k in
                   Printf.sprintf "{\"lo_s\":%.9g,\"hi_s\":%.9g,\"count\":%d}" lo
                     hi c)
                 (Histogram.nonempty_buckets h)))))
    (histograms ());
  Buffer.contents buf

let to_csv () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "kind,name,value,count,mean_s,p50_s,p90_s,p99_s,max_s\n";
  List.iter
    (fun (name, v) ->
      Buffer.add_string buf (Printf.sprintf "counter,%s,%d,,,,,,\n" name v))
    (counter_rows (totals ()));
  List.iter
    (fun (name, h) ->
      let n, mean, p50, p90, p99, vmax = hist_summary h in
      Buffer.add_string buf
        (Printf.sprintf "histogram,%s,,%d,%.9g,%.9g,%.9g,%.9g,%.9g\n" name n
           mean p50 p90 p99 vmax))
    (histograms ());
  Buffer.contents buf
