(** UDP datagram encoding. *)

type header = { src_port : int; dst_port : int }

val header :
  header -> src:Ipv4addr.t -> dst:Ipv4addr.t -> payload:Bytes.t -> Bytes.t
(** The 8-byte header for [payload], its pseudo-header checksum computed
    over the payload in place.  The IP layer copies header and payload
    straight into the frames it sends. *)

val encode :
  header -> src:Ipv4addr.t -> dst:Ipv4addr.t -> payload:Bytes.t -> Bytes.t
(** Header followed by payload. *)

val decode :
  Wire.slice list ->
  src:Ipv4addr.t ->
  dst:Ipv4addr.t ->
  (header * Bytes.t) option
(** Decode a datagram held in one slice or scattered over its fragments'
    slices, verifying the checksum in place.  The payload is the one
    copy a received datagram costs. *)
