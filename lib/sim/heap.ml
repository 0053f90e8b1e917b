(* Indexed binary min-heap over (key, prio, seq) triples.  Ordering is
   total and explicitly deterministic: entries compare by [key] first,
   then [prio] (the schedule explorer's random priority, 0 by default),
   and finally [seq] — a monotonically increasing insertion counter.
   Because [seq] is unique per entry, equal (key, prio) pairs always pop
   in insertion order, so two runs performing identical insertions replay
   byte-for-byte — the property schedule-seed sweeps rely on to reproduce
   an interleaving from its seed alone.

   Every element is a [node] that records its own slot, so [remove] takes
   it out from anywhere in O(log n) and the heap holds only the elements
   still wanted.  The node is both the heap's cell and the caller's
   handle: one record per element.  Because the order is total, removing
   some nodes never changes the order in which the others pop.

   Slots at or past [len] hold [Vacant], never a node that has left the
   heap, so a popped or removed element's value is not kept alive by the
   array. *)

type 'a node =
  | Vacant
  | Node of {
      key : int;
      prio : int;
      seq : int;
      value : 'a;
      owner : 'a t;
      mutable index : int;
          (* slot in [owner.data] while queued; [popped] once taken,
             [dropped] once [remove]d *)
    }

and 'a t = {
  mutable data : 'a node array;
  mutable len : int;
  mutable next_seq : int;
}

let popped = -1
let dropped = -2

let create () = { data = [||]; len = 0; next_seq = 0 }

let is_empty h = h.len = 0
let size h = h.len

let less a b =
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
  let parent = (i - 1) / 2 in
  if i > 0 && less n h.data.(parent) then begin
    place h i h.data.(parent);
    sift_up h parent n
  end
  else place h i n

(* Move [n] from the hole at slot [i] towards the leaves, past every
   child that precedes it. *)
let rec sift_down h i n =
  let l = (2 * i) + 1 in
  if l >= h.len then place h i n
  else
    let c =
      if l + 1 < h.len && less h.data.(l + 1) h.data.(l) then l + 1 else l
    in
    if less h.data.(c) n then begin
      place h i h.data.(c);
      sift_down h c n
    end
    else place h i n

let grow h =
  let cap = Array.length h.data in
  let ndata = Array.make (if cap = 0 then 16 else cap * 2) Vacant in
  Array.blit h.data 0 ndata 0 h.len;
  h.data <- ndata

let add h ~key ?(prio = 0) value =
  let n = Node { key; prio; seq = h.next_seq; value; owner = h; index = 0 } in
  h.next_seq <- h.next_seq + 1;
  if h.len = Array.length h.data then grow h;
  h.len <- h.len + 1;
  sift_up h (h.len - 1) n;
  n

(* Vacate slot [i]: the last node moves into the hole and sifts whichever
   way restores the order. *)
let delete h i =
  let last = h.len - 1 in
  let n = h.data.(last) in
  h.data.(last) <- Vacant;
  h.len <- last;
  if i < last then
    if i > 0 && less n h.data.((i - 1) / 2) then sift_up h i n
    else sift_down h i n

let top h = if h.len = 0 then invalid_arg "Heap.top: empty heap" else h.data.(0)

let take h =
  let n = top h in
  delete h 0;
  (match n with Node r -> r.index <- popped | Vacant -> ());
  n

let remove = function
  | Node r ->
      if r.index >= 0 then delete r.owner r.index;
      r.index <- dropped
  | Vacant -> ()

let key = function Node r -> r.key | Vacant -> invalid_arg "Heap.key"
let value = function Node r -> r.value | Vacant -> invalid_arg "Heap.value"
let removed = function Node r -> r.index = dropped | Vacant -> false

let min_key h = if h.len = 0 then None else Some (key h.data.(0))

let pop h =
  if h.len = 0 then None
  else
    let n = take h in
    Some (key n, value n)
