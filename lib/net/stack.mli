(** A host TCP/IP stack instance.

    One stack per simulated host (a DomU, the client load generator, or a
    driver domain's own stack).  It attaches to a {!Netdev}, answers ARP
    and ICMP echo, provides UDP sockets, and hosts the {!Tcp} engine via
    {!set_tcp_handler}.

    All protocol processing happens in the stack's receive process (the
    equivalent of NetBSD's softint), so protocol handlers must not stall
    the loop with long blocking operations. *)

type t

val create :
  Kite_sim.Process.sched ->
  name:string ->
  dev:Netdev.t ->
  mac:Macaddr.t ->
  ip:Ipv4addr.t ->
  netmask:Ipv4addr.t ->
  ?gateway:Ipv4addr.t ->
  ?rx_cost:Kite_sim.Time.span ->
  unit ->
  t
(** [rx_cost] models per-packet host processing (default 0). *)

val sched : t -> Kite_sim.Process.sched
val name : t -> string
val mac : t -> Macaddr.t
val ip : t -> Ipv4addr.t
val set_ip : t -> Ipv4addr.t -> unit
val dev : t -> Netdev.t

exception Network_unreachable of string
(** No route: destination off-subnet and no gateway. *)

exception Host_unreachable of string
(** ARP resolution failed after retries. *)

(** {1 ARP} *)

val resolve : t -> Ipv4addr.t -> Macaddr.t
(** Blocking ARP resolution with cache; 3 retries of 1 s then
    {!Host_unreachable}. *)

val arp_cache_size : t -> int

(** {1 Raw IP (used by the TCP engine)} *)

val send_ip :
  t ->
  dst:Ipv4addr.t ->
  protocol:Ipv4.protocol ->
  ?hdr:Bytes.t ->
  Bytes.t ->
  unit
(** Resolve the next hop and emit the IP payload [hdr ^ body] (a transport
    header, default none, and its body), fragmented to the MTU.  Each
    frame is built in one buffer with its headers written in place, so
    the payload is copied once.  Blocking only on ARP miss. *)

val set_tcp_handler : t -> (Ipv4.header -> Wire.slice -> unit) -> unit
(** The handler gets the segment as a slice of the received frame. *)

(** {1 ICMP} *)

val ping : t -> dst:Ipv4addr.t -> ?timeout:Kite_sim.Time.span ->
  seq:int -> unit -> Kite_sim.Time.span option
(** Send an echo request with a 56-byte payload (ping's default), return
    the RTT or [None] on timeout. *)

(** {1 UDP} *)

type udp_socket

val udp_bind : t -> port:int -> udp_socket
(** Raises [Invalid_argument] if the port is taken. *)

val udp_send :
  t -> udp_socket -> dst:Ipv4addr.t -> dst_port:int -> Bytes.t -> unit
(** Broadcast destinations go out as Ethernet broadcast (no ARP). *)

val udp_recv : udp_socket -> Ipv4addr.t * int * Bytes.t
(** Blocking receive: (source ip, source port, payload). *)

val udp_recv_timeout :
  udp_socket -> Kite_sim.Time.span -> (Ipv4addr.t * int * Bytes.t) option

val tx_packets : t -> int
