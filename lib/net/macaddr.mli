(** 48-bit Ethernet MAC addresses.

    An address is an immediate value (its 48 bits, big-endian), so
    decoding a header allocates no address, {!equal} and {!compare} are
    integer operations, and {!Table} keys on it without the generic
    hash. *)

type t

val of_string : string -> t
(** Parse ["aa:bb:cc:dd:ee:ff"].  Raises [Invalid_argument] otherwise. *)

val to_string : t -> string

val of_bytes : Bytes.t -> off:int -> t
(** The 6 bytes at [off]. *)

val write : t -> Bytes.t -> off:int -> unit
(** Write the 6 bytes at [off]. *)

val broadcast : t
val is_broadcast : t -> bool

val make_local : int -> t
(** [make_local n] is a locally-administered unicast address derived from
    [n]; distinct inputs yield distinct addresses. *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** The byte-wise order of the 6 bytes. *)

module Table : Hashtbl.S with type key = t
(** Tables keyed by address (the bridge's forwarding database). *)
