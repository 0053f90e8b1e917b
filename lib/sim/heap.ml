(* Indexed 4-ary min-heap over (key, prio, seq) triples, with its minimum
   held aside.  Ordering is total and explicitly deterministic: entries
   compare by [key] first, then [prio] (the schedule explorer's random
   priority, 0 by default), and finally [seq] — a monotonically
   increasing insertion counter.  Because [seq] is unique per entry,
   equal (key, prio) pairs always pop in insertion order, so two runs
   performing identical insertions replay byte-for-byte — the property
   schedule-seed sweeps rely on to reproduce an interleaving from its
   seed alone.

   Every element is a [node] that records where it is, so [remove] takes
   it out from anywhere and the heap holds only the elements still
   wanted.  The node is both the heap's cell and the caller's handle: one
   record per element.  Because the order is total, removing some nodes
   never changes the order in which the others pop.

   A node that is the minimum when it arrives (an event due before all
   others, as most wake-ups at the current instant are) goes into the
   [first] slot outside the array, and [take] hands it back without a
   sift.  While [first] holds a node it precedes every node in the array;
   a smaller arrival pushes it into the array and takes its place.  The
   array is 4-ary: half as deep as a binary heap, with four children
   compared per level on the way down.

   Slots at or past [len], and [first] when empty, hold [Vacant], never a
   node that has left the heap, so a popped or removed element's value is
   not kept alive by the heap. *)

type 'a node =
  | Vacant
  | Node of {
      key : int;
      prio : int;
      seq : int;
      value : 'a;
      owner : 'a t;
      mutable index : int;
          (* slot in [owner.data] while in the array; [held] while in
             [owner.first]; [popped] once taken, [dropped] once
             [remove]d *)
    }

and 'a t = {
  mutable first : 'a node;
  mutable data : 'a node array;
  mutable len : int;
  mutable next_seq : int;
}

let held = -3
let popped = -1
let dropped = -2

let create () = { first = Vacant; data = [||]; len = 0; next_seq = 0 }

let size h = match h.first with Node _ -> h.len + 1 | Vacant -> h.len
let is_empty h = size h = 0

let[@inline] less a b =
  match (a, b) with
  | Node a, Node b ->
      a.key < b.key
      || (a.key = b.key
         && (a.prio < b.prio || (a.prio = b.prio && a.seq < b.seq)))
  | _ -> false

let place h i n =
  h.data.(i) <- n;
  match n with Node r -> r.index <- i | Vacant -> ()

(* Move [n] from the hole at slot [i] towards the root, past every
   ancestor it precedes. *)
let rec sift_up h i n =
  let parent = (i - 1) / 4 in
  if i > 0 && less n h.data.(parent) then begin
    place h i h.data.(parent);
    sift_up h parent n
  end
  else place h i n

(* Move [n] from the hole at slot [i] towards the leaves, past every
   child that precedes it: [m] is the least of the up to four children
   in slots [c] to [c + 3]. *)
let rec sift_down h i n =
  let c = (4 * i) + 1 and len = h.len and d = h.data in
  if c >= len then place h i n
  else
    let m = if c + 1 < len && less d.(c + 1) d.(c) then c + 1 else c in
    let m = if c + 2 < len && less d.(c + 2) d.(m) then c + 2 else m in
    let m = if c + 3 < len && less d.(c + 3) d.(m) then c + 3 else m in
    if less d.(m) n then begin
      place h i d.(m);
      sift_down h m n
    end
    else place h i n

let grow h =
  let cap = Array.length h.data in
  let ndata = Array.make (if cap = 0 then 16 else cap * 2) Vacant in
  Array.blit h.data 0 ndata 0 h.len;
  h.data <- ndata

let push h n =
  if h.len = Array.length h.data then grow h;
  h.len <- h.len + 1;
  sift_up h (h.len - 1) n

let add h ~key ?(prio = 0) value =
  let n =
    Node { key; prio; seq = h.next_seq; value; owner = h; index = held }
  in
  h.next_seq <- h.next_seq + 1;
  (match h.first with
  | Vacant ->
      if h.len = 0 || less n h.data.(0) then h.first <- n else push h n
  | Node _ as f ->
      if less n f then begin
        push h f;
        h.first <- n
      end
      else push h n);
  n

(* Vacate slot [i]: the last node moves into the hole and sifts whichever
   way restores the order. *)
let delete h i =
  let last = h.len - 1 in
  let n = h.data.(last) in
  h.data.(last) <- Vacant;
  h.len <- last;
  if i < last then
    if i > 0 && less n h.data.((i - 1) / 4) then sift_up h i n
    else sift_down h i n

let top h =
  match h.first with
  | Node _ as n -> n
  | Vacant ->
      if h.len = 0 then invalid_arg "Heap.top: empty heap" else h.data.(0)

let take h =
  let n = top h in
  (match n with
  | Node r ->
      if r.index = held then h.first <- Vacant else delete h 0;
      r.index <- popped
  | Vacant -> ());
  n

let remove = function
  | Node r ->
      if r.index = held then r.owner.first <- Vacant
      else if r.index >= 0 then delete r.owner r.index;
      r.index <- dropped
  | Vacant -> ()

let key = function Node r -> r.key | Vacant -> invalid_arg "Heap.key"
let value = function Node r -> r.value | Vacant -> invalid_arg "Heap.value"
let removed = function Node r -> r.index = dropped | Vacant -> false

let min_key h = if is_empty h then None else Some (key (top h))

let pop h =
  if is_empty h then None
  else
    let n = take h in
    Some (key n, value n)
