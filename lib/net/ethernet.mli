(** Ethernet II framing. *)

type ethertype = Ipv4 | Arp | Other of int

val ethertype_code : ethertype -> int

type header = { dst : Macaddr.t; src : Macaddr.t; ethertype : ethertype }

val header_size : int
(** 14 bytes. *)

val write_header : Bytes.t -> header -> unit
(** Write the header over the first 14 bytes of a frame buffer. *)

val encode : header -> payload:Bytes.t -> Bytes.t
(** Header followed by payload (no FCS; the link is assumed reliable at
    the bit level). *)

val decode : Bytes.t -> (header * Wire.slice) option
(** [None] for a runt frame.  The payload is a slice of the frame, not a
    copy. *)
