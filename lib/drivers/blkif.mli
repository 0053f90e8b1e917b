(** The blkfront/blkback wire protocol (Xen blkif).

    A request carries up to 11 {e direct} segments — the most that fits in
    a ring slot, bounding direct requests at 44 KiB — or an {e indirect}
    descriptor whose grant references point at pages containing packed
    segment descriptors, lifting the limit to [max_indirect_segments]
    pages (Kite follows Linux's cap of 32).  Each segment addresses a
    whole-or-partial 4 KiB page in 512-byte sectors. *)

type operation = Read | Write | Flush

type segment = {
  gref : Kite_xen.Grant_table.ref_;
  first_sect : int;  (** 0..7: first 512-byte sector of the page used *)
  last_sect : int;  (** 0..7: last sector used, inclusive *)
}

type body =
  | Direct of segment list  (** at most {!max_direct_segments} *)
  | Indirect of Kite_xen.Grant_table.ref_ list * int
      (** pages of packed descriptors, and the total segment count *)

type request = {
  req_id : int;
  op : operation;
  sector : int;  (** starting device sector *)
  body : body;
}

type response = { rsp_id : int; status : int }

val status_ok : int
val status_error : int

val max_direct_segments : int
(** 11. *)

val max_indirect_segments : int
(** 32 (Linux-compatible cap; the ABI itself allows 512 per page). *)

val segments_per_indirect_page : int
(** 512. *)

val segment_bytes : segment -> int

val ring_order : int
(** 5 — the classic 32-slot block ring. *)

include module type of Xenif.Mq
(** The multi-queue key names ({!Xenif.Mq}), shared with the network
    side and Linux xen-blkfront's multi-ring support. *)

type ring = (request, response) Kite_xen.Ring.t

(** {1 Indirect descriptor encoding}

    Descriptors are packed 8 bytes each into granted pages, exactly like
    the C ABI — blkback genuinely parses bytes out of the shared page. *)

val descriptor_buffers : int -> Bytes.t array
(** Zeroed buffers for [n] packed descriptors, 512 to a buffer, each
    exactly as long as the descriptors it holds.  Fill them with
    {!put_descriptor}, then grant each as a page with
    [Kite_xen.Page.of_bytes]: the rest of the page reads as zeroes. *)

val put_descriptor :
  Bytes.t array ->
  int ->
  gref:Kite_xen.Grant_table.ref_ ->
  first_sect:int ->
  last_sect:int ->
  unit
(** [put_descriptor bufs i ~gref ~first_sect ~last_sect] packs segment
    [i] into its buffer. *)

val unpack_segments : Kite_xen.Page.t array -> count:int -> segment array
(** Parses [count] descriptors out of the pages into a fresh array,
    reading only their [count * 8] bytes.  Raises [Invalid_argument] if
    the pages are too few to hold them (the backend checks the page
    count first). *)

(** {1 Shared-ring registry} *)

type registry = ring Xenif.registry

val registry : unit -> registry

val share : registry -> owner:int -> ring -> int
(** [owner] is the sharing frontend's domid; the backend validates a
    frontend-advertised reference against it before mapping. *)

val map : registry -> int -> ring
(** Raises [Not_found] on a bogus reference. *)
