(** Indexed 4-ary min-heap keyed by integer priority, with its minimum
    held aside.

    Used as the event queue of the simulation engine.  Ordering is a
    total, explicitly deterministic (key, prio, seq) comparison: [key]
    first, then [prio] (the schedule explorer's random event priority, 0
    by default), then a stable per-insertion sequence number.  Equal
    (key, prio) entries therefore pop in insertion order, and any run
    making identical insertions replays byte-for-byte.

    An element that is the minimum when it is added is held in a slot
    outside the array, and {!take} returns it without a sift; a smaller
    arrival moves it into the array.  The array is 4-ary (children
    [4i+1] to [4i+4]), so it is half as deep as a binary heap.

    Every element lives in a {!node} that knows where it is, so {!remove}
    takes it out from anywhere, in O(1) for the held minimum and
    O(log n) from the array: the heap holds only the elements still
    wanted.  A node is one record — key, priority, sequence number,
    value, heap and slot — and serves as the caller's handle too.  Since
    the order is total, removals never change the order in which the
    remaining elements pop.  Vacated slots are cleared, so the heap keeps
    no popped or removed value alive. *)

type 'a t

type 'a node
(** One element of a heap: returned by {!add}, taken by {!take}. *)

val create : unit -> 'a t

val is_empty : 'a t -> bool

val size : 'a t -> int
(** Number of elements queued, the held minimum included (removed ones
    are not counted). *)

val add : 'a t -> key:int -> ?prio:int -> 'a -> 'a node
(** [add h ~key ?prio v] inserts [v] with primary priority [key] and
    secondary priority [prio] (default 0), and returns its node. *)

val min_key : 'a t -> int option
(** Smallest key currently in the heap, if any. *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the minimum element, following the deterministic
    (key, prio, insertion-order) ordering above. *)

val top : 'a t -> 'a node
(** The minimum node, left in place.  Raises [Invalid_argument] on an
    empty heap. *)

val take : 'a t -> 'a node
(** Remove and return the minimum node ({!pop} without allocating).
    Raises [Invalid_argument] on an empty heap. *)

val remove : 'a node -> unit
(** Take the node out of its heap if it is still queued, and mark it
    removed either way.  Removing a node again is a no-op. *)

val removed : 'a node -> bool
(** Whether {!remove} has been called on the node. *)

val key : 'a node -> int

val value : 'a node -> 'a
