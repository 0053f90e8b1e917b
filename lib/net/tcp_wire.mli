(** TCP segment encoding (20-byte header, no options beyond what the
    simulated stack negotiates implicitly). *)

type flags = { syn : bool; ack : bool; fin : bool; rst : bool; psh : bool }

val no_flags : flags

type header = {
  src_port : int;
  dst_port : int;
  seq : int;  (** 32-bit sequence number, kept in an int *)
  ack_num : int;
  flags : flags;
  window : int;  (** receive window in bytes, pre-scaled *)
}

val header :
  header -> src:Ipv4addr.t -> dst:Ipv4addr.t -> payload:Bytes.t -> Bytes.t
(** The 20-byte header for [payload], its pseudo-header checksum computed
    over the payload in place. *)

val encode :
  header -> src:Ipv4addr.t -> dst:Ipv4addr.t -> payload:Bytes.t -> Bytes.t
(** Header followed by payload. *)

val decode :
  Wire.slice -> src:Ipv4addr.t -> dst:Ipv4addr.t -> (header * Wire.slice) option
(** Verifies the pseudo-header checksum.  The payload is a slice of the
    segment, not a copy. *)

val seq_add : int -> int -> int
(** Sequence arithmetic modulo 2^32. *)

val seq_lt : int -> int -> bool
(** Wrapping sequence comparison. *)

val seq_leq : int -> int -> bool
