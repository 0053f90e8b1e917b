(** Netfront: the paravirtual network frontend in a guest VM.

    Exposes a {!Kite_net.Netdev} to the guest's network stack; behind it,
    frames travel through the Tx/Rx shared rings to the netback instance
    in the driver domain.  Uses the copy-based receive path
    (feature-rx-copy), like modern Linux/NetBSD frontends and Kite.

    The frontend is crash-tolerant: it watches the backend's xenbus state
    after connecting and, on a Closed/vanished backend, drops in-flight Tx
    frames (a cable-pull), discards posted Rx
    buffers, and re-runs the handshake with fresh rings and grants against
    the rebooted backend.  Tx/Rx resume as soon as the re-handshake
    completes. *)

type t

val create :
  Xen_ctx.t ->
  domain:Kite_xen.Domain.t ->
  backend:Kite_xen.Domain.t ->
  devid:int ->
  ?num_queues:int ->
  unit ->
  t
(** Start the frontend; the xenbus handshake proceeds in the background.
    The toolstack must already have created the xenstore skeleton (see
    {!Toolstack.add_vif}).

    [num_queues] asks the backend for that many Tx/Rx ring pairs (the
    backend caps it at its advertised max); when absent, the
    toolstack's [queues-wanted] hint is used instead, and when neither
    exists — or the backend advertises no multi-queue support — the
    frontend uses the legacy flat single-ring layout.  Rings are one
    page in either layout. *)

val netdev : t -> Kite_net.Netdev.t
(** The guest-visible interface.  Frames transmitted before the handshake
    completes are dropped, as on real hardware while the carrier is off. *)

val wait_connected : t -> unit
(** Block the calling process until the handshake reaches Connected. *)

val shutdown : t -> unit
(** Frontend close path: retire the Rx thread, revoke all outstanding
    grants (in-flight Tx and posted Rx buffers) and close the event
    channel.  Run after the backend has stopped touching the rings. *)

val connected : t -> bool

val num_queues : t -> int
(** Negotiated queue count (0 before the first handshake completes). *)

val tx_dropped : t -> int

val reconnects : t -> int
(** Completed or in-progress crash-recovery cycles. *)
