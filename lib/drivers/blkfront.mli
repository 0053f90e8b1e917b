(** Blkfront: the paravirtual block frontend in a guest VM.

    Presents a sector-addressable block device; operations become blkif
    requests through the shared ring.  Large operations are split into
    requests of at most 44 KiB (direct) or 128 KiB (indirect, when the
    backend advertises it) that proceed in parallel.  With persistent
    grants enabled, data pages come from a reusable granted pool so the
    backend never remaps them.

    The frontend is crash-tolerant: it keeps an in-flight request
    journal, watches the backend's xenbus state after connecting, and on
    a Closed/vanished backend re-runs the handshake against the rebooted
    backend and replays every unacknowledged journal entry verbatim
    (same ids, same grants) into the fresh ring.  Completions reach the
    layer above exactly once.  A per-request watchdog additionally
    recovers from lost completion notifications (by draining + kicking)
    and lost requests (by re-issuing the journal entry). *)

type t

val create :
  Xen_ctx.t ->
  domain:Kite_xen.Domain.t ->
  backend:Kite_xen.Domain.t ->
  devid:int ->
  ?use_persistent:bool ->
  ?num_queues:int ->
  unit ->
  t
(** Persistent grants default to on and indirect descriptors are always
    used; both also require backend support, negotiated via xenstore.
    [num_queues] asks for that many independent rings (the backend caps
    the answer); when omitted the frontend honours a toolstack
    [queues-wanted] hint in its own xenstore directory, and with neither
    it stays a legacy single-ring frontend.  Rings are one page in
    either layout. *)

val wait_connected : t -> unit

val shutdown : t -> unit
(** Frontend close path: revoke the persistent page pool's grants and
    close the event channel.  Must run after {!Blkback.stop} has unmapped
    the backend's persistent references. *)

val sector_size : int
(** 512. *)

val capacity_sectors : t -> int
(** From the backend's advertisement; valid once connected. *)

exception Io_error of string

val read : t -> sector:int -> count:int -> Bytes.t
(** Blocking read of [count] sectors. *)

val write : t -> sector:int -> Bytes.t -> unit
(** Blocking write; length must be sector-aligned. *)

val flush : t -> unit

val requests_issued : t -> int

val is_connected : t -> bool

val reconnects : t -> int
(** Completed or in-progress crash-recovery cycles. *)

val replayed : t -> int
(** Journal entries replayed into a fresh ring after a reconnect. *)

val resubmits : t -> int
(** Requests re-issued by the watchdog (lost request / corrupted slot). *)

val indirect_enabled : t -> bool
val persistent_enabled : t -> bool

val num_queues : t -> int
(** Negotiated ring count (1 for legacy operation; 0 before the first
    connect completes). *)
