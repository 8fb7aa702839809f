(* Shared plumbing for the Section 4/5 schemes: parameter rounding, the
   vicinity/coloring setup they all begin with, and color representatives. *)
open Cr_graph
open Cr_routing

let log_src =
  Logs.Src.create "compact-routing" ~doc:"Compact routing preprocessing"

module Log = (val Logs.src_log log_src : Logs.LOG)

let root_exp n x = max 1 (int_of_float (Float.round (float_of_int n ** x)))

(* The paper's q~ = alpha * q * log n, clamped to n. *)
let vicinity_size ~n ~q ~factor =
  let log2n = Float.max 1.0 (log (float_of_int n) /. log 2.0) in
  min n (max 2 (int_of_float (ceil (factor *. float_of_int q *. log2n))))

(* Mode resolution shared by the rt-* schemes: [`Auto] keeps the eager
   reference construction at experimental sizes and flips to the
   lazy/truncated substrates past CR_RT_LAZY_N vertices (default 10^4) —
   the point where the dense per-destination stores stop fitting. *)
let default_lazy_n = 10_000

let lazy_threshold () =
  match Sys.getenv_opt "CR_RT_LAZY_N" with
  | None | Some "" -> default_lazy_n
  | Some s -> (
    match int_of_string_opt s with
    | Some v when v > 0 -> v
    | _ -> default_lazy_n)

let resolve_mode mode n =
  match mode with
  | `Eager -> `Eager
  | `Lazy -> `Lazy
  | `Auto -> if n > lazy_threshold () then `Lazy else `Eager

let require_connected g name =
  if not (Bfs.is_connected g) then
    invalid_arg (name ^ ": graph must be connected")

(* Lemma 6 coloring of the vicinity family; raises on failure. *)
let color_vicinities ~seed g vic ~colors =
  let n = Graph.n g in
  let sets = Array.to_list (Array.map Vicinity.members vic) in
  match Coloring.make ~seed ~n ~colors sets with
  | Ok c -> c
  | Error e -> invalid_arg ("coloring failed: " ^ e)

(* reps.(u).(c) = nearest member of B(u) with color c, with its distance.
   Existence is condition (1) of Lemma 6. *)
let color_reps vic (c : Coloring.t) =
  Array.map
    (fun b ->
      Array.init c.colors (fun color ->
          match
            Vicinity.nearest_of b (fun w -> c.color.(w) = color)
          with
          | Some w -> (w, Vicinity.dist b w)
          | None -> invalid_arg "color_reps: vicinity misses a color"))
    vic

(* Per-source dense scratch for the intersection-witness passes of
   Theorems 10, 13 and 15. Each offer proposes witness [w] for
   destination [v] at length [s]; the scratch keeps the lexicographic
   minimum [(s, w)] per destination, with the [tag] of the offer that set
   it (the first offer wins an exact tie). [flush] compiles the touched
   destinations into a map [v -> tag * n + w] ([unpack] splits a value
   back into [(tag, w)]) and resets exactly those entries, so one source
   costs O(offers), not O(n). *)
module Witness_scratch = struct
  type t = {
    n : int;
    best_s : float array;
    best_w : int array; (* -1: no offer yet (best_s, best_tag unset) *)
    best_tag : int array;
    touched : int array;
    mutable count : int;
  }

  let create n =
    {
      n;
      best_s = Array.make n 0.0;
      best_w = Array.make n (-1);
      best_tag = Array.make n 0;
      touched = Array.make n 0;
      count = 0;
    }

  let offer t v ~s ~w ~tag =
    let w0 = t.best_w.(v) in
    if w0 < 0 then begin
      t.touched.(t.count) <- v;
      t.count <- t.count + 1;
      t.best_s.(v) <- s;
      t.best_w.(v) <- w;
      t.best_tag.(v) <- tag
    end
    else if s < t.best_s.(v) || (s = t.best_s.(v) && w < w0) then begin
      t.best_s.(v) <- s;
      t.best_w.(v) <- w;
      t.best_tag.(v) <- tag
    end

  let flush t =
    let map =
      Compiled.Intmap.of_pairs
        (Array.init t.count (fun i ->
             let v = t.touched.(i) in
             (v, (t.best_tag.(v) * t.n) + t.best_w.(v))))
    in
    for i = 0 to t.count - 1 do
      t.best_w.(t.touched.(i)) <- -1
    done;
    t.count <- 0;
    map

  let unpack ~n x = (x / n, x mod n)
end

(* Simulation wrapper shared by all schemes; [?faults] subjects the run to
   a fault plan (the schemes themselves stay fault-oblivious). The two
   simulator knobs default on, as in [Port_model.run]; the throughput
   engine turns both off. *)
let run_scheme ?faults ?record_path ?detect_loops g ~src ~header ~step
    ~header_words =
  Port_model.run g ~src ~header ~step ~header_words ?faults ?record_path
    ?detect_loops
    ~max_hops:((64 * Graph.n g) + 256)
    ()
