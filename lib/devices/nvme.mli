(** NVMe SSD model (the paper's Samsung 970 EVO Plus).

    Sector-addressable storage with a queued service model: a pool of
    [queue_depth] workers serves submitted commands; a command's service
    time is a fixed base latency plus a bandwidth-proportional transfer
    time.

    A command names the memory it moves as a list of page ranges, as an
    NVMe PRP list does; there is no buffer of the device's own in
    between.  The device copies between those pages and its media when
    the transfer completes, which is when a real controller's DMA lands:
    a write stores what its pages hold at completion, and a read's pages
    change only then.  The media is a sparse store of 64 KiB extents,
    created zeroed on an extent's first write and overwritten in place
    after that, so sectors never written read as zeroes, like a fresh
    drive. *)

type t

val sector_size : int
(** 512 bytes. *)

val create :
  Kite_sim.Process.sched ->
  name:string ->
  ?capacity_sectors:int ->
  ?queue_depth:int ->
  ?read_base:Kite_sim.Time.span ->
  ?cmd_overhead:Kite_sim.Time.span ->
  ?bandwidth_mbps:float ->
  unit ->
  t
(** Defaults: 500 GB, queue depth 32, 25 us read base latency (writes
    and flushes take 30 us), 4 us serialized controller work per
    command, 1500 MB/s sustained bandwidth.  Base latencies overlap
    across the queue; per-command work and transfer time serialize on
    the media. *)

val capacity_sectors : t -> int

exception Out_of_range of string

exception Transient_error of string
(** A retryable command failure, produced only by an attached fault
    injector ([Device_io]; key = device name).  Raised at submission, so
    a retry resubmits the whole command. *)

val set_fault : t -> Kite_fault.Fault.t option -> unit

type segment = Kite_xen.Page.t * int * int
(** [(page, off, len)]: [len] bytes of [page] starting at [off].  A
    command's segments are its transfer in device order. *)

val read : t -> sector:int -> segment array -> unit
(** Blocking (process context): fills the segments, in order, from the
    sectors starting at [sector].  The total length must be a multiple of
    512; each segment must lie inside its page.  Both are checked at
    submission: [Invalid_argument] on a violation, {!Out_of_range} past
    the capacity. *)

val write : t -> sector:int -> segment array -> unit
(** Blocking; stores the segments, in order, at the sectors starting at
    [sector], with {!read}'s checks.  The pages are read at completion;
    the caller must not change them before this returns. *)

val flush : t -> unit
(** Blocking cache flush barrier. *)

val reads : t -> int
val writes : t -> int
val bytes_read : t -> int
val bytes_written : t -> int
