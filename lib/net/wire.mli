(** Byte-level helpers for wire formats (big-endian network order). *)

val get_u8 : Bytes.t -> int -> int
val set_u8 : Bytes.t -> int -> int -> unit
val get_u16 : Bytes.t -> int -> int
val set_u16 : Bytes.t -> int -> int -> unit
val get_u32 : Bytes.t -> int -> int32
val set_u32 : Bytes.t -> int -> int32 -> unit

(** {1 Slices}

    The receive path parses frames in place: a decoder hands back a
    slice of the buffer it was given instead of a copy, so a frame's
    bytes are copied once, when the payload leaves the stack.  A
    fragmented datagram is a list of slices (an iovec), one per
    fragment, in offset order. *)

type slice = { buf : Bytes.t; off : int; len : int }

val of_bytes : Bytes.t -> slice
(** The whole buffer. *)

val sub : slice -> off:int -> len:int -> slice
(** [off] is relative to the slice.  Raises [Invalid_argument] outside
    it. *)

val shift : slice -> int -> slice
(** Drop the first [n] bytes. *)

val to_bytes : slice -> Bytes.t
(** A fresh copy. *)

val length : slice list -> int
(** Total bytes of a slice list. *)

val gather : slice list -> off:int -> len:int -> Bytes.t
(** A fresh buffer holding bytes [\[off, off + len)] of the
    concatenation. *)

val concat : slice list -> slice
(** One slice: the only element itself, else a gathered copy. *)

val index : slice list -> char -> int option
(** Offset in the concatenation of the first occurrence of the byte.
    Each slice is searched only inside its own range
    [\[off, off + len)], never the rest of its buffer. *)

(** {1 Internet checksum} *)

val sum : Bytes.t -> off:int -> len:int -> int
(** RFC 1071 ones'-complement sum of the range as big-endian 16-bit
    words (a trailing odd byte padded with zero), folded to 16 bits.
    Computed eight bytes per load.  0 exactly when every byte is 0. *)

val finish : int -> int
(** Fold a sum of partial sums and complement it: the checksum field. *)

val checksum : Bytes.t -> off:int -> len:int -> int
(** [finish (sum b ~off ~len)].  Zero the checksum field first; a range
    that includes a correct checksum sums to 0. *)

val checksum_iov : init:int -> slice list -> int
(** Checksum over the concatenation, exact for odd-length slices at any
    position.  [init] is a partial sum to include, such as
    {!Ipv4.pseudo_sum}. *)
