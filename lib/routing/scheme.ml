open Cr_graph

type instance = {
  name : string;
  graph : Graph.t;
  route :
    faults:Fault.plan option ->
    record_path:bool ->
    detect_loops:bool ->
    src:int ->
    dst:int ->
    Port_model.outcome;
  table_words : int array;
  label_words : int array;
  big_bytes : int;
}

(* With telemetry disabled the router is called directly and telemetry
   adds no allocation: a route allocates the simulator's fixed per-run
   words (see [Port_model.run]) and what the scheme's step allocates. *)
let route ?faults inst ~src ~dst =
  if !Telemetry.on then
    Telemetry.timed "route" (fun () ->
        inst.route ~faults ~record_path:true ~detect_loops:true ~src ~dst)
  else inst.route ~faults ~record_path:true ~detect_loops:true ~src ~dst

let count_fast_plane_hit () =
  let tc = Telemetry.counters_shard () in
  tc.Telemetry.fast_plane_hits <- tc.Telemetry.fast_plane_hits + 1

let route_fast ?faults ?(record_path = true) ?(detect_loops = true) inst ~src
    ~dst =
  if !Telemetry.on then begin
    count_fast_plane_hit ();
    Telemetry.timed "route" (fun () ->
        inst.route ~faults ~record_path ~detect_loops ~src ~dst)
  end
  else inst.route ~faults ~record_path ~detect_loops ~src ~dst

let max_table_words i = Array.fold_left max 0 i.table_words

let avg_table_words i =
  let n = Array.length i.table_words in
  if n = 0 then 0.0
  else float_of_int (Array.fold_left ( + ) 0 i.table_words) /. float_of_int n

let max_label_words i = Array.fold_left max 0 i.label_words

type eval = {
  samples : (float * float) array;
  failures : int;
  header_words_peak : int;
}

let compare_pair (u1, v1) (u2, v2) =
  if u1 <> u2 then Int.compare u1 u2 else Int.compare v1 v2

let sample_pairs ~seed ~n ~count =
  let all = n * (n - 1) in
  if count >= all then begin
    let acc = ref [] in
    for u = n - 1 downto 0 do
      for v = n - 1 downto 0 do
        if u <> v then acc := (u, v) :: !acc
      done
    done;
    !acc
  end
  else if 2 * count >= all then begin
    (* Dense draws: rejection sampling collapses as the table fills (the
       expected time to hit the last free pair is Θ(all) draws), so
       enumerate every ordered pair and keep a partial Fisher–Yates
       prefix instead. *)
    let pairs = Array.make all (0, 0) in
    let m = ref 0 in
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        if u <> v then begin
          pairs.(!m) <- (u, v);
          incr m
        end
      done
    done;
    let st = Random.State.make [| seed; 0x7072 |] in
    for i = 0 to count - 1 do
      let j = i + Random.State.int st (all - i) in
      let tmp = pairs.(i) in
      pairs.(i) <- pairs.(j);
      pairs.(j) <- tmp
    done;
    let chosen = Array.sub pairs 0 count in
    Array.sort compare_pair chosen;
    Array.to_list chosen
  end
  else begin
    let st = Random.State.make [| seed; 0x7072 |] in
    let seen = Hashtbl.create (2 * count) in
    while Hashtbl.length seen < count do
      let u = Random.State.int st n and v = Random.State.int st n in
      if u <> v then Hashtbl.replace seen (u, v) ()
    done;
    Hashtbl.fold (fun p () acc -> p :: acc) seen [] |> List.sort compare_pair
  end

(* Shared accumulation: samples land in a buffer preallocated to the pair
   count (every delivered pair adds at most one sample), so evaluation does
   no per-pair list consing. *)
let collect ~len fill =
  let buf = Array.make (max 1 len) (0.0, 0.0) in
  let filled = ref 0 in
  let failures = ref 0 in
  let peak = ref 0 in
  fill
    ~sample:(fun d l ->
      buf.(!filled) <- (d, l);
      incr filled)
    ~failure:(fun () -> incr failures)
    ~observe_peak:(fun p -> if p > !peak then peak := p);
  {
    samples = Array.sub buf 0 !filled;
    failures = !failures;
    header_words_peak = !peak;
  }

let evaluate_under_faults ?faults inst apsp pairs =
  collect ~len:(List.length pairs) (fun ~sample ~failure ~observe_peak ->
      List.iter
        (fun (u, v) ->
          let d = Apsp.dist apsp u v in
          if d <> infinity && d > 0.0 then begin
            let o =
              inst.route ~faults ~record_path:true ~detect_loops:true ~src:u
                ~dst:v
            in
            observe_peak o.Port_model.header_words_peak;
            if Port_model.delivered_to o v then sample d o.Port_model.length
            else failure ()
          end)
        pairs)

let evaluate inst apsp pairs = evaluate_under_faults inst apsp pairs

(* Per-pair results of the parallel sweep; one slot per pair, written once
   by whichever domain drew the index. Failures keep their verdict so the
   serial merge can also maintain per-verdict counters for the caller. *)
type slot =
  | Skipped
  | Sample of float * float * int (* distance, routed length, header peak *)
  | Failure of Port_model.verdict * int

(* The batched engine proper, generalized over the distance source: [get i]
   yields pair [i] with its true distance. [evaluate_batch] reads distances
   from an APSP oracle; [evaluate_sampled] replays distances captured by
   {!Workload.sampled_pairs}, so million-vertex sweeps never build the n^2
   matrix. Everything else — sharding, slots, serial pair-order merge — is
   shared, so both are bit-identical to a serial sweep over the same
   router. *)
let batch_core ?pool ?faults ~fast ?verdicts inst np get =
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let knobs = not fast in
  let route_one ~src ~dst =
    inst.route ~faults ~record_path:knobs ~detect_loops:knobs ~src ~dst
  in
  (* Every worker increments its own counter shard and records latencies
     into its own histogram shard, so the sweep needs no synchronization
     and the merged totals match a serial run exactly. *)
  let slots = Array.make np Skipped in
  Pool.iter pool ~n:np (fun i ->
      let u, v, d = get i in
      if d <> infinity && d > 0.0 then begin
        let o =
          if !Telemetry.on then begin
            if fast then count_fast_plane_hit ();
            Telemetry.timed "route" (fun () -> route_one ~src:u ~dst:v)
          end
          else route_one ~src:u ~dst:v
        in
        slots.(i) <-
          (if Port_model.delivered_to o v then
             Sample (d, o.Port_model.length, o.Port_model.header_words_peak)
           else Failure (o.Port_model.verdict, o.Port_model.header_words_peak))
      end);
  (* Merge in pair order — the schedule cannot leak into the result, so the
     eval is bit-identical to the serial sweep over the same router. The
     optional verdict counters are bumped here, on the single merging
     domain, so they need no synchronization and cannot perturb the eval. *)
  let bump v =
    match verdicts with
    | None -> ()
    | Some counts ->
      let k = Port_model.verdict_class v in
      counts.(k) <- counts.(k) + 1
  in
  collect ~len:np (fun ~sample ~failure ~observe_peak ->
      Array.iter
        (function
          | Skipped -> ()
          | Sample (d, l, p) ->
            observe_peak p;
            bump Port_model.Delivered;
            sample d l
          | Failure (v, p) ->
            observe_peak p;
            bump v;
            failure ())
        slots)

let evaluate_batch ?pool ?faults ?(fast = true) ?verdicts inst apsp pairs =
  let pairs = Array.of_list pairs in
  batch_core ?pool ?faults ~fast ?verdicts inst (Array.length pairs)
    (fun i ->
      let u, v = pairs.(i) in
      (u, v, Apsp.dist apsp u v))

let evaluate_sampled ?pool ?faults ?(fast = true) ?verdicts inst pairs =
  let pairs = Array.of_list pairs in
  batch_core ?pool ?faults ~fast ?verdicts inst (Array.length pairs)
    (fun i ->
      let (u, v), d = pairs.(i) in
      (u, v, d))

(* Chronological concatenation: equals one evaluation over the
   concatenated pair lists (samples keep pair order; failures add; peaks
   max) — what lets the serve loop evaluate in chunks yet report an eval
   bit-identical to a single batch over the whole stream. *)
let concat_evals evs =
  {
    samples = Array.concat (List.map (fun e -> e.samples) evs);
    failures = List.fold_left (fun a e -> a + e.failures) 0 evs;
    header_words_peak =
      List.fold_left (fun a e -> max a e.header_words_peak) 0 evs;
  }

let eval_is_empty e = Array.length e.samples = 0 && e.failures = 0

let delivery_rate e =
  let total = Array.length e.samples + e.failures in
  if total = 0 then 1.0
  else float_of_int (Array.length e.samples) /. float_of_int total

let max_stretch e =
  Array.fold_left
    (fun acc (d, l) ->
      let s = l /. d in
      if Float.compare s acc > 0 then s else acc)
    1.0 e.samples

let avg_stretch e =
  let k = Array.length e.samples in
  if k = 0 then 1.0
  else
    Array.fold_left (fun acc (d, l) -> acc +. (l /. d)) 0.0 e.samples
    /. float_of_int k

(* The sorted stretch array, computed once per eval and shared by every
   percentile read; [Float.compare] is a total order (NaN-safe), unlike
   the polymorphic compare it replaces. *)
let sorted_stretches e =
  let s = Array.map (fun (d, l) -> l /. d) e.samples in
  Array.sort Float.compare s;
  s

let percentile_of_sorted s p =
  let k = Array.length s in
  if k = 0 then 1.0
  else begin
    let idx = int_of_float (p *. float_of_int (k - 1)) in
    s.(max 0 (min (k - 1) idx))
  end

let percentiles e ps =
  let s = sorted_stretches e in
  List.map (percentile_of_sorted s) ps

let percentile_stretch e p = percentile_of_sorted (sorted_stretches e) p

let max_affine_excess e ~alpha ~beta =
  Array.fold_left
    (fun acc (d, l) -> Float.max acc (l -. ((alpha *. d) +. beta)))
    neg_infinity e.samples

(* "No data" must not read as "guarantee holds": an eval needs at least one
   routed sample before it can vouch for a stretch bound. *)
let within e ~alpha ~beta =
  e.failures = 0
  && Array.length e.samples > 0
  && max_affine_excess e ~alpha ~beta <= 1e-9
