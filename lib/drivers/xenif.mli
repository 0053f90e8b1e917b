(** ABI pieces the netif and blkif protocols share: the multi-queue
    xenstore keys and the shared-ring registry. *)

(** Key names from the Linux xen-netif/xen-blkif multi-queue ABI.  The
    backend advertises {!key_max_queues} and {!key_max_ring_page_order}
    before InitWait; a multi-queue frontend answers with
    {!key_num_queues} and {!key_ring_page_order} and puts its per-queue
    ring references and event channels under [queue_key q ...].  Absent
    keys mean the legacy flat single-ring layout on either side. *)
module Mq : sig
  val key_max_queues : string
  val key_num_queues : string
  val key_max_ring_page_order : string
  val key_ring_page_order : string

  val queue_key : int -> string -> string
  (** [queue_key 2 "tx-ring-ref"] is ["queue-2/tx-ring-ref"]. *)
end

val key : mq:bool -> int -> string -> string
(** A per-queue key of queue [q]: [Mq.queue_key q k] in the multi-queue
    layout, the flat [k] in the legacy one. *)

(** {1 Shared-ring registry}

    The frontend allocates rings in granted pages and advertises the
    references via xenstore; the backend "maps" them.  The registry
    resolves a reference to the shared structure and the domid that
    shared it.  References count from 1 per registry. *)

type 'a registry

val registry : unit -> 'a registry

val share : 'a registry -> owner:int -> 'a -> int
(** [owner] is the sharing frontend's domid; the backend validates a
    frontend-advertised reference against it before mapping, so one
    guest cannot hand the backend another guest's ring. *)

val find : 'a registry -> int -> 'a option
val owner_of : 'a registry -> int -> int option
(** The domid that shared a reference; [None] for a bogus one. *)
