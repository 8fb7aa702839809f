type t = {
  keys : int array;        (* keys.(i) = key stored at heap slot i *)
  prio : float array;      (* prio.(i) = priority of keys.(i) *)
  pos : int array;         (* pos.(k) = slot of key k, or -1 *)
  mutable len : int;
}

let create capacity =
  if capacity < 0 then invalid_arg "Heap.create";
  {
    keys = Array.make (max capacity 1) (-1);
    prio = Array.make (max capacity 1) 0.0;
    pos = Array.make (max capacity 1) (-1);
    len = 0;
  }

let is_empty h = h.len = 0

let size h = h.len

let mem h k = k >= 0 && k < Array.length h.pos && h.pos.(k) >= 0

let priority h k =
  if not (mem h k) then invalid_arg "Heap.priority: absent key";
  h.prio.(h.pos.(k))

(* [less h i j] orders slot [i] before slot [j]: by priority, then by key. *)
let[@inline] less h i j =
  h.prio.(i) < h.prio.(j) || (h.prio.(i) = h.prio.(j) && h.keys.(i) < h.keys.(j))

let swap h i j =
  let ki = h.keys.(i) and kj = h.keys.(j) in
  h.keys.(i) <- kj;
  h.keys.(j) <- ki;
  let pi = h.prio.(i) in
  h.prio.(i) <- h.prio.(j);
  h.prio.(j) <- pi;
  h.pos.(ki) <- j;
  h.pos.(kj) <- i

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less h i parent then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < h.len && less h l i then l else i in
  let smallest = if r < h.len && less h r smallest then r else smallest in
  if smallest <> i then begin
    swap h i smallest;
    sift_down h smallest
  end

(* [insert], [decrease] and [insert_or_decrease] are inlined so that a
   float priority reaches [prio] unboxed, in [insert_or_decrease_from] and
   in callers compiled with this module's inlining information. *)
let[@inline] insert h k p =
  if k < 0 || k >= Array.length h.pos then invalid_arg "Heap.insert: key out of range";
  if h.pos.(k) >= 0 then invalid_arg "Heap.insert: duplicate key";
  let i = h.len in
  h.keys.(i) <- k;
  h.prio.(i) <- p;
  h.pos.(k) <- i;
  h.len <- h.len + 1;
  sift_up h i

let[@inline] decrease h k p =
  if not (mem h k) then invalid_arg "Heap.decrease: absent key";
  let i = h.pos.(k) in
  if p > h.prio.(i) then invalid_arg "Heap.decrease: priority increase";
  h.prio.(i) <- p;
  sift_up h i

let[@inline] insert_or_decrease h k p =
  if mem h k then begin
    if p < h.prio.(h.pos.(k)) then decrease h k p
  end else insert h k p

let insert_or_decrease_from h k prio = insert_or_decrease h k prio.(k)

let peek_min h = if h.len = 0 then None else Some (h.keys.(0), h.prio.(0))

let clear h =
  for i = 0 to h.len - 1 do
    h.pos.(h.keys.(i)) <- -1
  done;
  h.len <- 0

let pop_key h =
  if h.len = 0 then -1
  else begin
    let k = h.keys.(0) in
    let last = h.len - 1 in
    swap h 0 last;
    h.len <- last;
    h.pos.(k) <- -1;
    if last > 0 then sift_down h 0;
    k
  end

let pop_min h =
  if h.len = 0 then None
  else begin
    let p = h.prio.(0) in
    let k = pop_key h in
    Some (k, p)
  end
