(** The netfront/netback wire protocol: request/response formats for the
    Tx and Rx rings, and the shared-ring registry standing in for
    mapping a ring's grant reference into the backend's address space. *)

type tx_request = {
  tx_id : int;
  tx_gref : Kite_xen.Grant_table.ref_;  (** page holding the frame *)
  tx_len : int;
}

type tx_response = { tx_rsp_id : int; tx_status : int }

type rx_request = {
  rx_id : int;
  rx_gref : Kite_xen.Grant_table.ref_;  (** empty buffer posted by netfront *)
}

type rx_response = { rx_rsp_id : int; rx_len : int; rx_status : int }

val status_ok : int
val status_error : int

type tx_ring = (tx_request, tx_response) Kite_xen.Ring.t
type rx_ring = (rx_request, rx_response) Kite_xen.Ring.t

val ring_order : int
(** 8 — 256-slot rings, as in the Xen netif ABI. *)

include module type of Xenif.Mq
(** The multi-queue key names ({!Xenif.Mq}). *)

val flow_hash : Bytes.t -> int -> int
(** [flow_hash frame nqueues] steers a frame to a queue by FNV-1a over
    its first 40 bytes (headers), mod [nqueues].  Deterministic, so a
    flow's packets stay ordered on one queue.  Returns 0 when
    [nqueues <= 1]. *)

(** {1 Shared-ring registry}

    The frontend allocates rings in granted pages and advertises the
    references via xenstore; the backend "maps" them.  The registry
    resolves a reference to the shared structure. *)

type shared = Tx of tx_ring | Rx of rx_ring
type registry = shared Xenif.registry

val registry : unit -> registry

val share_tx : registry -> owner:int -> tx_ring -> int
val share_rx : registry -> owner:int -> rx_ring -> int
(** [owner] is the sharing frontend's domid; the backend validates a
    frontend-advertised reference against it before mapping, so one
    guest cannot hand the backend another guest's ring. *)

val owner_of : registry -> int -> int option

val map_tx : registry -> int -> tx_ring
(** Raises [Not_found] on a bogus reference. *)

val map_rx : registry -> int -> rx_ring
