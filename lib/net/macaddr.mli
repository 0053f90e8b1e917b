(** 48-bit Ethernet MAC addresses. *)

type t

val of_string : string -> t
(** Parse ["aa:bb:cc:dd:ee:ff"].  Raises [Invalid_argument] otherwise. *)

val to_string : t -> string

val of_bytes : Bytes.t -> off:int -> t
val write : t -> Bytes.t -> off:int -> unit

val broadcast : t
val is_broadcast : t -> bool

val make_local : int -> t
(** [make_local n] is a locally-administered unicast address derived from
    [n]; distinct inputs yield distinct addresses. *)

val equal : t -> t -> bool
