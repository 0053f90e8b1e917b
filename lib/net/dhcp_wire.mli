(** DHCP message encoding — enough of RFC 2131/2132 for the
    Discover/Offer/Request/Ack exchange that the paper's daemon-VM
    experiment (perfdhcp against a unikernelized OpenDHCP) exercises. *)

type message_type = Discover | Offer | Request | Ack | Nak | Release

type t = {
  op : [ `Boot_request | `Boot_reply ];
  xid : int32;
  ciaddr : Ipv4addr.t;  (** client's current address *)
  yiaddr : Ipv4addr.t;  (** "your" (offered) address *)
  siaddr : Ipv4addr.t;  (** server address *)
  chaddr : Macaddr.t;  (** client hardware address *)
  message_type : message_type;
  server_id : Ipv4addr.t option;  (** option 54 *)
  requested_ip : Ipv4addr.t option;  (** option 50 *)
  lease_time : int32 option;  (** option 51, seconds *)
}

val make :
  op:[ `Boot_request | `Boot_reply ] ->
  xid:int32 ->
  chaddr:Macaddr.t ->
  message_type:message_type ->
  ?yiaddr:Ipv4addr.t ->
  ?siaddr:Ipv4addr.t ->
  ?server_id:Ipv4addr.t ->
  ?requested_ip:Ipv4addr.t ->
  ?lease_time:int32 ->
  unit ->
  t

val encode : t -> Bytes.t
val decode : Bytes.t -> t option

val server_port : int
(** 67 *)

val client_port : int
(** 68 *)
