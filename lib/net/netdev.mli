(** Network interfaces.

    A netdev is the boundary between a network stack (or bridge) and a
    transmission medium: a physical NIC, a Xen VIF, or a test pipe.  The
    medium supplies [transmit]; the owner installs an [rx] handler; the
    medium calls {!deliver} for every arriving frame.

    This is the IF/VIF abstraction of the paper's Figure 3b: netback
    exposes one VIF netdev per frontend, the physical driver exposes the
    IF netdev, and the bridge application wires them together. *)

type t

val create : name:string -> transmit:(Bytes.t -> unit) -> unit -> t

val name : t -> string

val mtu : t -> int
(** 1500 (payload bytes; the Ethernet header rides on top). *)

val set_up : t -> bool -> unit
(** Interfaces start down; ifconfig brings them up. *)

val set_rx : t -> (Bytes.t -> unit) -> unit

val transmit : t -> Bytes.t -> unit
(** Send a frame out of the interface.  Silently dropped when the
    interface is down or the frame exceeds MTU + header.  The frame is
    passed on by reference, not copied (netfront grants it to the
    backend in place), so it must not be modified afterwards. *)

val deliver : t -> Bytes.t -> unit
(** Called by the medium when a frame arrives; dropped when down.  The
    receiver may keep slices of the frame (the stack holds fragments and
    TCP data that way), so the medium must not modify it afterwards. *)

val tx_count : t -> int
val rx_count : t -> int

val set_tap : t -> ([ `Tx | `Rx ] -> Bytes.t -> unit) -> unit
(** Install a promiscuous tap observing every frame the interface sends
    or receives (used by {!Capture}).  One tap per interface. *)

val clear_tap : t -> unit

val pipe : name_a:string -> name_b:string -> t * t
(** Two netdevs wired back-to-back (zero-latency medium), for tests. *)
