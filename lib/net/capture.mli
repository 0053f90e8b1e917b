(** Packet capture: a tcpdump for the simulated network.

    Attach to any {!Netdev} (physical IF, VIF, netfront device) to record
    frames with simulated timestamps, then render them as one-line
    summaries decoded down through Ethernet/ARP/IPv4/ICMP/UDP/TCP.

    {[
      let cap = Capture.attach engine (Netfront.netdev front) in
      ... run traffic ...
      List.iter print_endline (Capture.dump cap)
    ]} *)

type t

type direction = Tx | Rx

type record = {
  at : Kite_sim.Time.t;
  direction : direction;
  frame : Bytes.t;
}

val attach : Kite_sim.Engine.t -> ?limit:int -> Netdev.t -> t
(** Start capturing (replaces any existing tap).  At most [limit] frames
    are kept (default 1024, oldest dropped first). *)

val detach : t -> unit

val records : t -> record list
(** In capture order. *)

val captured : t -> int
(** Total frames seen (including any dropped past [limit]). *)

val dump : t -> string list
(** Timestamped one-line summaries of everything captured. *)
