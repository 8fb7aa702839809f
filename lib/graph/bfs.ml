type result = {
  dist : int array;
  parent : int array;
  parent_port : int array;
  first_port : int array;
  order : int array;
}

let run g s =
  let n = Graph.n g in
  let dist = Array.make n max_int in
  let parent = Array.make n (-1) in
  let parent_port = Array.make n (-1) in
  let first_port = Array.make n (-1) in
  let order = Array.make n (-1) in
  let queue = Queue.create () in
  let { Graph.off; dst; _ } = Graph.csr g in
  let scan u =
    let base = Int32.to_int (Bigarray.Array1.get off u) in
    let stop = Int32.to_int (Bigarray.Array1.get off (u + 1)) - 1 in
    for idx = base to stop do
      let v = Int32.to_int (Bigarray.Array1.get dst idx) in
      if dist.(v) = max_int then begin
        dist.(v) <- dist.(u) + 1;
        parent.(v) <- u;
        let port = idx - base in
        parent_port.(v) <- port;
        first_port.(v) <- (if u = s then port else first_port.(u));
        Queue.add v queue
      end
    done
  in
  dist.(s) <- 0;
  Queue.add s queue;
  let count = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    order.(!count) <- u;
    incr count;
    scan u
  done;
  let order = Array.sub order 0 !count in
  { dist; parent; parent_port; first_port; order }

let dist g u v =
  let r = run g u in
  if r.dist.(v) = max_int then None else Some r.dist.(v)

(* One shared traversal over all components: a single label array and a
   single queue, instead of a fresh 5-array BFS result per component (which
   made disconnected million-vertex graphs quadratic-ish in allocation). *)
let components g =
  let n = Graph.n g in
  let comp = Array.make n (-1) in
  let queue = Queue.create () in
  let { Graph.off; dst; _ } = Graph.csr g in
  let scan u id =
    let base = Int32.to_int (Bigarray.Array1.get off u) in
    let stop = Int32.to_int (Bigarray.Array1.get off (u + 1)) - 1 in
    for idx = base to stop do
      let v = Int32.to_int (Bigarray.Array1.get dst idx) in
      if comp.(v) = -1 then begin
        comp.(v) <- id;
        Queue.add v queue
      end
    done
  in
  let next = ref 0 in
  for s = 0 to n - 1 do
    if comp.(s) = -1 then begin
      let id = !next in
      incr next;
      comp.(s) <- id;
      Queue.add s queue;
      while not (Queue.is_empty queue) do
        scan (Queue.pop queue) id
      done
    end
  done;
  comp

let is_connected g =
  let n = Graph.n g in
  n <= 1 || Array.length (run g 0).order = n

let eccentricity g u =
  let r = run g u in
  Array.fold_left (fun acc d -> if d <> max_int then max acc d else acc) 0 r.dist

let double_sweep g =
  if Graph.n g = 0 then 0
  else begin
    let r = run g 0 in
    let far = ref 0 in
    Array.iteri
      (fun v d -> if d <> max_int && d > r.dist.(!far) then far := v)
      r.dist;
    eccentricity g !far
  end
