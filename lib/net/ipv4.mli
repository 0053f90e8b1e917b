(** IPv4 packet encoding (20-byte header, no options) with fragmentation
    support — needed because nuttcp's 8 KiB UDP writes exceed the 1500-byte
    MTU, exactly as in the paper's setup. *)

type protocol = Icmp | Tcp | Udp | Other_proto of int

val protocol_code : protocol -> int

type header = {
  src : Ipv4addr.t;
  dst : Ipv4addr.t;
  protocol : protocol;
  ttl : int;
  id : int;  (** identification, shared by a datagram's fragments *)
  more_fragments : bool;
  frag_offset : int;  (** byte offset of this fragment's payload *)
}

val make_header :
  src:Ipv4addr.t -> dst:Ipv4addr.t -> protocol:protocol -> ttl:int -> header
(** An unfragmented header (id 0, no MF, offset 0). *)

val header_size : int

val is_fragment : header -> bool

val write_header : Bytes.t -> off:int -> header -> len:int -> unit
(** Write the header, checksum included, at [off] of a frame buffer for a
    packet of [len] bytes (header included). *)

val encode : header -> payload:Bytes.t -> Bytes.t
(** Computes the header checksum. *)

val decode : Wire.slice -> (header * Wire.slice) option
(** Verifies the header checksum; [None] on corruption or truncation.
    The body is a slice of the input, not a copy. *)

val pseudo_sum :
  src:Ipv4addr.t -> dst:Ipv4addr.t -> protocol:protocol -> len:int -> int
(** The partial sum of the 12-byte pseudo-header UDP and TCP checksums
    cover, for {!Wire.checksum_iov}'s [init]. *)
