(** Max-priority queue over node ids [0 .. n-1] for FM-style refinement:
    a positioned binary max-heap ordered by decreasing priority, then
    increasing node id, as METIS's ipq.  That order is total, so the
    sequence [pop_best] yields depends only on the members and their
    priorities, never on the heap's layout.

    [pop_best] takes a predicate: it returns the root when the predicate
    accepts it, and otherwise scans the heap once for the best accepted
    member.  Only the member returned leaves the queue; rejected ones
    are never removed and re-inserted.  A best-first walk below a
    rejected root would examine fewer members, but it did not make GDP's
    partitioning measurably faster on the benchmark suite. *)

type t = {
  prio : int array;  (** current priority of each member *)
  pos : int array;  (** node -> index in [heap], or -1 when absent *)
  heap : int array;  (** members, heap-ordered; the first [size] are live *)
  mutable size : int;
}

let create ~n =
  {
    prio = Array.make n 0;
    pos = Array.make n (-1);
    heap = Array.make (max n 1) 0;
    size = 0;
  }

let cardinal t = t.size
let mem t v = t.pos.(v) >= 0

let clear t =
  for i = 0 to t.size - 1 do
    t.pos.(t.heap.(i)) <- -1
  done;
  t.size <- 0

(* [a] comes out before [b]: higher priority, then lower id *)
let before t a b =
  let pa = t.prio.(a) and pb = t.prio.(b) in
  pa > pb || (pa = pb && a < b)

(* place [v] at hole [i], moving it toward the root *)
let sift_up t i v =
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let u = t.heap.(p) in
    if before t v u then begin
      t.heap.(!i) <- u;
      t.pos.(u) <- !i;
      i := p
    end
    else continue := false
  done;
  t.heap.(!i) <- v;
  t.pos.(v) <- !i

(* place [v] at hole [i], moving it toward the leaves *)
let sift_down t i v =
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= t.size then continue := false
    else begin
      let r = l + 1 in
      let c =
        if r < t.size && before t t.heap.(r) t.heap.(l) then r else l
      in
      let u = t.heap.(c) in
      if before t u v then begin
        t.heap.(!i) <- u;
        t.pos.(u) <- !i;
        i := c
      end
      else continue := false
    end
  done;
  t.heap.(!i) <- v;
  t.pos.(v) <- !i

let insert t v ~prio =
  if t.pos.(v) >= 0 then invalid_arg "Gain_pq.insert: already present";
  t.prio.(v) <- prio;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) v

let fill t prio ~n =
  if t.size > 0 then invalid_arg "Gain_pq.fill: queue not empty";
  Array.blit prio 0 t.prio 0 n;
  for v = 0 to n - 1 do
    t.heap.(v) <- v;
    t.pos.(v) <- v
  done;
  t.size <- n;
  (* bottom-up heap construction: linear time *)
  for i = (n / 2) - 1 downto 0 do
    sift_down t i t.heap.(i)
  done

(* remove the member at heap index [i]; the last member fills the hole *)
let remove_at t i =
  t.pos.(t.heap.(i)) <- -1;
  let last = t.size - 1 in
  t.size <- last;
  if i < last then begin
    let m = t.heap.(last) in
    if i > 0 && before t m t.heap.((i - 1) / 2) then sift_up t i m
    else sift_down t i m
  end

let remove t v = if t.pos.(v) >= 0 then remove_at t t.pos.(v)

let update t v ~prio =
  let i = t.pos.(v) in
  if i < 0 then invalid_arg "Gain_pq.update: not present";
  let old = t.prio.(v) in
  if prio <> old then begin
    t.prio.(v) <- prio;
    if prio > old then sift_up t i v else sift_down t i v
  end

let pop_best t ~accept =
  if t.size = 0 then -1
  else begin
    let found = ref (-1) in
    if accept t.heap.(0) then found := 0
    else
      for i = 1 to t.size - 1 do
        let v = t.heap.(i) in
        if (!found < 0 || before t v t.heap.(!found)) && accept v then
          found := i
      done;
    if !found < 0 then -1
    else begin
      let v = t.heap.(!found) in
      remove_at t !found;
      v
    end
  end
