(* Two physical families serve the forwarding tables: direct arrays for
   dense key ranges and sorted parallel arrays for sparse ones, chosen per
   structure at build time from its keys alone. *)

let bigarray_bytes (type a b c) (a : (a, b, c) Bigarray.Array1.t) =
  Bigarray.Array1.size_in_bytes a

(* ------------------------------------------------------------------ *)
(* Intmap                                                              *)
(* ------------------------------------------------------------------ *)

module Intmap = struct
  (* [Direct] stores values at [arr.(key - off)] with [absent] marking
     holes; [Sorted] keeps parallel arrays ordered by key. Keys and values
     are restricted to [>= 0] so [absent] can never collide with a value. *)
  type t =
    | Direct of { off : int; arr : int array }
    | Sorted of { keys : int array; vals : int array }

  (* Values are [>= 0], so [-1] marks a Direct hole (and a miss in
     [find_raw]); it marshals in 2 bytes, where [min_int] would take 9. *)
  let absent = -1

  (* Branchless lower bound: index of the first key [>= x] in [0, n].
     The loop body is a compare and two adds per halving — no data-
     dependent branch beyond the final membership test. *)
  let lower_bound keys x =
    let n = Array.length keys in
    if n = 0 then 0
    else begin
      let base = ref 0 and len = ref n in
      while !len > 1 do
        let half = !len lsr 1 in
        if Array.unsafe_get keys (!base + half - 1) < x then base := !base + half;
        len := !len - half
      done;
      if Array.unsafe_get keys !base < x then !base + 1 else !base
    end

  (* Direct when the key span holds at most ~4 slots per key. *)
  let direct_fits ~m ~span = span <= (4 * m) + 8

  let of_sorted ~keys ~vals =
    let m = Array.length keys in
    if Array.length vals <> m then
      invalid_arg "Compiled.Intmap.of_sorted: length mismatch";
    for i = 0 to m - 1 do
      if keys.(i) < 0 || vals.(i) < 0 then
        invalid_arg "Compiled.Intmap: negative key or value";
      if i > 0 && keys.(i) <= keys.(i - 1) then
        invalid_arg "Compiled.Intmap.of_sorted: keys not strictly increasing"
    done;
    (* Every empty map is this one constant block, which Marshal writes
       once per residue. *)
    if m = 0 then Sorted { keys = [||]; vals = [||] }
    else begin
      let lo = keys.(0) in
      let span = keys.(m - 1) - lo + 1 in
      if direct_fits ~m ~span then begin
        let arr = Array.make span absent in
        for i = 0 to m - 1 do
          arr.(keys.(i) - lo) <- vals.(i)
        done;
        Direct { off = lo; arr }
      end
      else Sorted { keys = Array.copy keys; vals = Array.copy vals }
    end

  (* A dense span lands each pair in its slot in one O(m) pass: no sort,
     no intermediate key/value arrays, and a slot already filled is the
     duplicate check. A sparse one takes the sorted path. Both produce
     exactly what [of_sorted] builds from the sorted pairs. *)
  let of_pairs pairs =
    let m = Array.length pairs in
    let lo = ref max_int and hi = ref (-1) in
    Array.iter
      (fun (k, v) ->
        if k < 0 || v < 0 then
          invalid_arg "Compiled.Intmap: negative key or value";
        if k < !lo then lo := k;
        if k > !hi then hi := k)
      pairs;
    let span = !hi - !lo + 1 in
    if m > 0 && direct_fits ~m ~span then begin
      let arr = Array.make span absent in
      Array.iter
        (fun (k, v) ->
          let i = k - !lo in
          if arr.(i) <> absent then
            invalid_arg "Compiled.Intmap.of_pairs: duplicate key";
          arr.(i) <- v)
        pairs;
      Direct { off = !lo; arr }
    end
    else begin
      let sorted = Array.copy pairs in
      Array.sort (fun (a, _) (b, _) -> Int.compare a b) sorted;
      of_sorted ~keys:(Array.map fst sorted) ~vals:(Array.map snd sorted)
    end

  let of_hashtbl h =
    (* [Hashtbl.fold] visits every binding, most recent first per key;
       keep only the visible one so replace-style tables compile to what
       [Hashtbl.find] answers. *)
    let seen = Hashtbl.create (Hashtbl.length h) in
    let acc = ref [] in
    Hashtbl.iter
      (fun k _ ->
        if not (Hashtbl.mem seen k) then begin
          Hashtbl.replace seen k ();
          acc := (k, Hashtbl.find h k) :: !acc
        end)
      h;
    of_pairs (Array.of_list !acc)

  let find_raw t x =
    match t with
    | Direct { off; arr } ->
      let i = x - off in
      if i < 0 || i >= Array.length arr then absent else arr.(i)
    | Sorted { keys; vals } ->
      let i = lower_bound keys x in
      if i < Array.length keys && Array.unsafe_get keys i = x then
        Array.unsafe_get vals i
      else absent

  let find t x =
    let v = find_raw t x in
    if v = absent then raise Not_found else v

  let find_opt t x =
    let v = find_raw t x in
    if v = absent then None else Some v

  let mem t x = find_raw t x <> absent

  let cardinal = function
    | Sorted { keys; _ } -> Array.length keys
    | Direct { arr; _ } ->
      Array.fold_left (fun n v -> if v = absent then n else n + 1) 0 arr

  (* Payload bytes of the physical representation — the honest footprint
     of the lookup structure itself, headers excluded. *)
  let bytes = function
    | Direct { arr; _ } -> 8 * Array.length arr
    | Sorted { keys; vals } -> 8 * (Array.length keys + Array.length vals)
end

(* ------------------------------------------------------------------ *)
(* Table                                                               *)
(* ------------------------------------------------------------------ *)

module Table = struct
  type 'a t = { index : Intmap.t; items : 'a array }

  let of_hashtbl h =
    let seen = Hashtbl.create (Hashtbl.length h) in
    let acc = ref [] in
    Hashtbl.iter
      (fun k _ ->
        if not (Hashtbl.mem seen k) then begin
          Hashtbl.replace seen k ();
          acc := (k, Hashtbl.find h k) :: !acc
        end)
      h;
    let pairs = Array.of_list !acc in
    Array.sort (fun (a, _) (b, _) -> Int.compare a b) pairs;
    let items = Array.map snd pairs in
    let index =
      Intmap.of_sorted ~keys:(Array.map fst pairs)
        ~vals:(Array.init (Array.length pairs) Fun.id)
    in
    { index; items }

  let find t k = t.items.(Intmap.find t.index k)

  let find_opt t k =
    match Intmap.find_opt t.index k with
    | Some i -> Some t.items.(i)
    | None -> None

  let mem t k = Intmap.mem t.index k

  let map f t = { index = t.index; items = Array.map f t.items }

  let cardinal t = Array.length t.items

  let index_bytes t = Intmap.bytes t.index
end

(* ------------------------------------------------------------------ *)
(* Bitset                                                              *)
(* ------------------------------------------------------------------ *)

module Bitset = struct
  (* Two physical forms. [Dense] is the byte-packed bitmap — O(1) tests,
     n/8 bytes regardless of occupancy. That fixed cost is quadratic in
     aggregate for the schemes that keep one set per vertex (TZ bunch
     membership: n sets of n bits = n^2/8 bytes, 125 GB at n = 10^6), so
     sparse sets compile to a sorted key array instead — 8 bytes per
     member, O(log c) tests. The crossover is where the two costs meet:
     8c < n/8. *)
  type t =
    | Dense of { bits : Bytes.t; n : int; cardinal : int }
    | Sparse of { keys : int array; n : int }

  let distinct_keys ~n h =
    let keys =
      Hashtbl.fold
        (fun v () acc ->
          if v < 0 || v >= n then
            invalid_arg "Compiled.Bitset: key out of range";
          v :: acc)
        h []
    in
    Array.of_list (List.sort_uniq Int.compare keys)

  let of_hashtbl_keys ~n h =
    let keys = distinct_keys ~n h in
    let c = Array.length keys in
    if 64 * c >= n then begin
      let bits = Bytes.make ((n + 7) / 8) '\000' in
      Array.iter
        (fun v ->
          let byte = Char.code (Bytes.get bits (v lsr 3)) in
          Bytes.set bits (v lsr 3) (Char.chr (byte lor (1 lsl (v land 7)))))
        keys;
      Dense { bits; n; cardinal = c }
    end
    else Sparse { keys; n }

  let mem s v =
    match s with
    | Dense { bits; n; _ } ->
      v >= 0 && v < n
      && Char.code (Bytes.get bits (v lsr 3)) land (1 lsl (v land 7)) <> 0
    | Sparse { keys; n } ->
      v >= 0 && v < n
      &&
      let i = Intmap.lower_bound keys v in
      i < Array.length keys && Array.unsafe_get keys i = v

  let cardinal = function
    | Dense { cardinal; _ } -> cardinal
    | Sparse { keys; _ } -> Array.length keys

  let bytes = function
    | Dense { bits; _ } -> Bytes.length bits
    | Sparse { keys; _ } -> 8 * Array.length keys
end
