(* Three physical families serve the forwarding tables: direct arrays for
   dense key ranges, sorted parallel arrays for sparse ones, and
   Elias-Fano key sets with bit-packed payloads. The representation is
   chosen per structure at build time; the [policy] override exists so
   the bench can force the same logical tables into their flat and
   succinct forms and compare routes/sec on identical decisions. *)

type policy = [ `Auto | `Flat | `Succinct ]

let policy : policy ref =
  ref
    (match Sys.getenv_opt "CR_PLANE" with
    | Some "flat" -> `Flat
    | Some "succinct" -> `Succinct
    | _ -> `Auto)

let set_policy p = policy := p

let current_policy () = !policy

let bigarray_bytes (type a b c) (a : (a, b, c) Bigarray.Array1.t) =
  Bigarray.Array1.size_in_bytes a

(* ------------------------------------------------------------------ *)
(* Bit-field plumbing shared by the succinct structures                 *)
(* ------------------------------------------------------------------ *)

(* Fields are packed LSB-first so any [width <= 32] field is one
   [Bytes.get_int64_le] load, a shift and a mask — no per-bit loop on the
   hot path. The buffer carries 8 spare bytes so the load at the last
   field never reads past the end. *)
let field_pad = 8

let pack_fields ~count ~width get =
  let bits = count * width in
  let b = Bytes.make (((bits + 7) / 8) + field_pad) '\000' in
  for i = 0 to count - 1 do
    let p = i * width in
    let byte = p lsr 3 and off = p land 7 in
    let cur = Bytes.get_int64_le b byte in
    Bytes.set_int64_le b byte
      Int64.(logor cur (shift_left (of_int (get i)) off))
  done;
  b

let get_field b ~width p =
  let byte = p lsr 3 and off = p land 7 in
  Int64.to_int (Int64.shift_right_logical (Bytes.get_int64_le b byte) off)
  land ((1 lsl width) - 1)

let get_bit b p =
  Char.code (Bytes.unsafe_get b (p lsr 3)) land (1 lsl (p land 7)) <> 0

let set_bit b p =
  let byte = p lsr 3 in
  Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lor (1 lsl (p land 7))))

(* ------------------------------------------------------------------ *)
(* Intmap                                                              *)
(* ------------------------------------------------------------------ *)

module Intmap = struct
  (* [Direct] stores values at [arr.(key - off)] with [absent] marking
     holes; [Sorted] keeps parallel arrays ordered by key; [Succinct] is
     the Elias-Fano form — keys split into [l] low bits (packed flat) and
     a unary upper bitmap, values packed at [vbits] bits. Keys and values
     are restricted to [>= 0] so [absent] can never collide with a value. *)
  type t =
    | Direct of { off : int; arr : int array }
    | Sorted of { keys : int array; vals : int array }
    | Succinct of {
        base : int;  (** smallest key; keys are stored biased by [-base] *)
        m : int;  (** number of keys *)
        l : int;  (** low-bits width (0 when the high part is injective) *)
        top : int;  (** largest biased high part [(last - base) lsr l] *)
        lows : Bytes.t;  (** [m] fields of [l] bits *)
        upper : Bytes.t;  (** unary bitmap: element ones, bucket-end zeros *)
        sel0 : int array;  (** position of every 64th zero of [upper] *)
        vbits : int;  (** value width *)
        vals : Bytes.t;  (** [m] fields of [vbits] bits *)
      }

  (* Values are [>= 0], so [-1] marks a Direct hole (and a miss in
     [find_raw]); it marshals in 2 bytes, where [min_int] would take 9. *)
  let absent = -1

  (* Branchless lower bound: index of the first key [>= x] in [0, n].
     The loop body is a compare and two adds per halving — no data-
     dependent branch beyond the final membership test — which is what
     lets the Sorted lookup keep pace with the succinct select path. *)
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

  (* --- Elias-Fano construction --------------------------------------- *)

  (* [select0 u sel0 h] is the bit position of zero number [h] (0-based)
     of the unary bitmap: one sampled landmark, then a forward scan that
     fast-skips all-ones bytes. Zero [h] terminates bucket [h], so
     [select0 h - h] is the count of elements in buckets [0..h]. *)
  let select0 upper sel0 h =
    let q = h lsr 6 in
    let pos = ref (Array.unsafe_get sel0 q) in
    let rem = ref (h land 63) in
    while !rem > 0 do
      incr pos;
      if !pos land 7 = 0 then
        while Bytes.get upper (!pos lsr 3) = '\xff' do
          pos := !pos + 8
        done;
      if not (get_bit upper !pos) then decr rem
    done;
    !pos

  (* Position of the first zero strictly after [pos]. *)
  let next0 upper pos =
    let pos = ref (pos + 1) in
    while get_bit upper !pos do
      incr pos;
      if !pos land 7 = 0 then
        while Bytes.get upper (!pos lsr 3) = '\xff' do
          pos := !pos + 8
        done
    done;
    !pos

  let max_width = 32

  (* Geometry of the encoding for strictly increasing [keys]: pick the
     low-bits width [l] so the bucket count stays within [2m], then the
     sizes follow. Returns [None] when a field would overflow the
     single-load width cap. *)
  let ef_geometry ~keys ~vals =
    let m = Array.length keys in
    if m = 0 then None
    else begin
      let base = keys.(0) in
      let span = keys.(m - 1) - base in
      let l = ref 0 in
      while span lsr !l >= 2 * m && !l < max_width do
        incr l
      done;
      let top = span lsr !l in
      let vmax = Array.fold_left max 0 vals in
      let vbits = Bits.bits_for (vmax + 1) in
      if !l > max_width || vbits > max_width || top >= 1 lsl 40 then None
      else Some (base, !l, top, vbits)
    end

  let ef_bytes ~keys ~vals =
    match ef_geometry ~keys ~vals with
    | None -> max_int
    | Some (_, l, top, vbits) ->
      let m = Array.length keys in
      let nbuckets = top + 1 in
      ((m * l) + 7) / 8
      + ((m + nbuckets + 7) / 8)
      + ((m * vbits) + 7) / 8
      + (8 * ((nbuckets + 63) / 64))
      + (3 * field_pad)

  let make_succinct ~keys ~vals =
    match ef_geometry ~keys ~vals with
    | None -> None
    | Some (base, l, top, vbits) ->
      let m = Array.length keys in
      let nbuckets = top + 1 in
      let lmask = (1 lsl l) - 1 in
      let lows =
        if l = 0 then Bytes.make field_pad '\000'
        else pack_fields ~count:m ~width:l (fun i -> (keys.(i) - base) land lmask)
      in
      let vals_b = pack_fields ~count:m ~width:vbits (fun i -> vals.(i)) in
      let ubits = m + nbuckets in
      let upper = Bytes.make (((ubits + 7) / 8) + field_pad) '\000' in
      let sel0 = Array.make ((nbuckets + 63) / 64) 0 in
      let i = ref 0 in
      for h = 0 to nbuckets - 1 do
        while !i < m && (keys.(!i) - base) lsr l = h do
          set_bit upper (!i + h);
          incr i
        done;
        (* zero number [h] sits at [!i + h]; sample every 64th. *)
        if h land 63 = 0 then sel0.(h lsr 6) <- !i + h
      done;
      Some (Succinct { base; m; l; top; lows; upper; sel0; vbits; vals = vals_b })

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
    if m = 0 then Sorted { keys = [||]; vals = [||] }
    else begin
      let lo = keys.(0) and hi = keys.(m - 1) in
      let span = hi - lo + 1 in
      let direct () =
        let arr = Array.make span absent in
        for i = 0 to m - 1 do
          arr.(keys.(i) - lo) <- vals.(i)
        done;
        Direct { off = lo; arr }
      in
      let sorted () = Sorted { keys = Array.copy keys; vals = Array.copy vals } in
      match !policy with
      | `Flat -> if direct_fits ~m ~span then direct () else sorted ()
      | `Succinct -> (
        match make_succinct ~keys ~vals with
        | Some s -> s
        | None -> if direct_fits ~m ~span then direct () else sorted ())
      | `Auto ->
        if direct_fits ~m ~span then direct ()
          (* Succinct only when it buys at least 2x over the 16 bytes per
             entry of the sorted form AND the map is past the size where
             binary search stops being cache-resident — under ~512
             entries both key and value arrays live in L1/L2 and the
             lower-bound loop beats any select machinery, so small maps
             stay flat and the hot path never pays for the compression. *)
        else if m >= 512 && 2 * ef_bytes ~keys ~vals <= 16 * m then
          match make_succinct ~keys ~vals with
          | Some s -> s
          | None -> sorted ()
        else sorted ()
    end

  (* When the policy would pick the Direct layout anyway ([`Auto]/[`Flat]
     and a dense span), each pair lands in its slot in one O(m) pass: no
     sort, no intermediate key/value arrays, and a slot already filled is
     the duplicate check. Everything else takes the sorted path. Both
     produce exactly what [of_sorted] builds from the sorted pairs. *)
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
    let direct =
      m > 0
      && (match !policy with `Auto | `Flat -> true | `Succinct -> false)
      && direct_fits ~m ~span
    in
    if direct then begin
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
    | Succinct { base; m = _; l; top; lows; upper; sel0; vbits; vals } ->
      let u = x - base in
      if u < 0 then absent
      else begin
        let h = u lsr l in
        if h > top then absent
        else begin
          (* Elements of bucket [h] occupy indices [c0, c1). *)
          let c0, c1 =
            if h = 0 then (0, select0 upper sel0 0)
            else begin
              let z = select0 upper sel0 (h - 1) in
              (z - (h - 1), next0 upper z - h)
            end
          in
          if l = 0 then if c1 > c0 then get_field vals ~width:vbits (c0 * vbits) else absent
          else begin
            let lx = u land ((1 lsl l) - 1) in
            (* The lows of one bucket are strictly increasing: binary
               search for big buckets, linear for the common tiny ones. *)
            let rec linear i =
              if i >= c1 then absent
              else begin
                let lv = get_field lows ~width:l (i * l) in
                if lv = lx then get_field vals ~width:vbits (i * vbits)
                else if lv > lx then absent
                else linear (i + 1)
              end
            in
            let rec bin lo hi =
              if lo > hi then absent
              else begin
                let mid = (lo + hi) lsr 1 in
                let lv = get_field lows ~width:l (mid * l) in
                if lv = lx then get_field vals ~width:vbits (mid * vbits)
                else if lv < lx then bin (mid + 1) hi
                else bin lo (mid - 1)
              end
            in
            if c1 - c0 <= 16 then linear c0 else bin c0 (c1 - 1)
          end
        end
      end

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
    | Succinct { m; _ } -> m

  (* Payload bytes of the physical representation — the honest footprint
     of the lookup structure itself, headers excluded. *)
  let bytes = function
    | Direct { arr; _ } -> 8 * Array.length arr
    | Sorted { keys; vals } -> 8 * (Array.length keys + Array.length vals)
    | Succinct { lows; upper; sel0; vals; _ } ->
      Bytes.length lows + Bytes.length upper + Bytes.length vals
      + (8 * Array.length sel0)
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
