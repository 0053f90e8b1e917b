(** IPv4 addresses.

    An address is an immediate value: its 32 bits sign-extended from
    bit 31, so {!compare} orders exactly as [Int32.compare] on
    {!to_int32} does, decoding a header allocates no address, and
    {!Table} keys on it without the generic hash. *)

type t

val of_string : string -> t
(** Parse dotted-quad.  Raises [Invalid_argument] on malformed input. *)

val to_string : t -> string

val of_int32 : int32 -> t
val to_int32 : t -> int32

val to_int : t -> int
(** The 32 bits as a non-negative int (for checksums and hash keys). *)

val of_bytes : Bytes.t -> off:int -> t
(** The 4 bytes at [off], network order. *)

val write : t -> Bytes.t -> off:int -> unit
(** Write the 4 bytes at [off], network order. *)

val any : t
(** 0.0.0.0 *)

val broadcast : t
(** 255.255.255.255 *)

val same_subnet : t -> t -> netmask:t -> bool

val equal : t -> t -> bool

val compare : t -> t -> int
(** The order of [Int32.compare] on {!to_int32}. *)

module Table : Hashtbl.S with type key = t
(** Tables keyed by address (the ARP cache). *)
