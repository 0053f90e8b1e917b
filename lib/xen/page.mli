(** Machine pages.

    A page is a 4 KiB byte buffer with a machine frame number.  Sharing a
    page between domains (the effect of mapping a grant) is modelled by
    sharing the same [Page.t] value. *)

val size : int
(** 4096. *)

type t

val alloc : unit -> t
(** A fresh zeroed page. *)

val of_bytes : Bytes.t -> t
(** A fresh page holding [b] at offset 0 and zeroes after it, without
    copying: the page shares [b], which must not change afterwards.  The
    first {!write}, {!blit} into or {!fill} of the page copies it out
    first, so [b] is never written through the page.  A frontend grants a
    frame this way, in the buffer it was built in.  Raises
    [Invalid_argument] if [b] is longer than a page. *)

val read : t -> off:int -> len:int -> Bytes.t
(** Copy out of the page.  Raises [Invalid_argument] if out of bounds. *)

val write : t -> off:int -> Bytes.t -> unit
(** Copy into the page.  Raises [Invalid_argument] if out of bounds. *)

val read_into : t -> off:int -> len:int -> Bytes.t -> dst_off:int -> unit
(** [read_into t ~off ~len dst ~dst_off] copies the page's bytes
    [\[off, off + len)] into [dst] at [dst_off], with no buffer in
    between.  Raises [Invalid_argument] if either range is out of
    bounds. *)

val write_from : t -> off:int -> Bytes.t -> src_off:int -> len:int -> unit
(** [write_from t ~off src ~src_off ~len] copies [src]'s bytes
    [\[src_off, src_off + len)] into the page at [off].  Like {!write}, a
    page made by {!of_bytes} first takes a copy of its own, so [src] and
    the page's original buffer are never written.  Raises
    [Invalid_argument] if either range is out of bounds. *)

val blit : src:t -> src_off:int -> dst:t -> dst_off:int -> len:int -> unit

val fill : t -> char -> unit
