(** IPv4 addresses. *)

type t

val of_string : string -> t
(** Parse dotted-quad.  Raises [Invalid_argument] on malformed input. *)

val to_string : t -> string

val of_int32 : int32 -> t
val to_int32 : t -> int32

val any : t
(** 0.0.0.0 *)

val broadcast : t
(** 255.255.255.255 *)

val same_subnet : t -> t -> netmask:t -> bool

val equal : t -> t -> bool
