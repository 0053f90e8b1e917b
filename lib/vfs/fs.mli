(** An extent-based filesystem over a {!Blockdev}.

    Stands in for the NetBSD FFS-through-vnode path of the paper's storage
    macrobenchmarks: file data always moves through the block device (and
    hence, in the experiments, through blkfront/blkback), while metadata —
    inodes, directories, the allocation bitmap — is kept in memory, as an
    aggressively caching filesystem would.

    Files are lists of extents (contiguous block runs) with next-fit
    allocation, so sequential files stay sequential on the device and
    blkback's consecutive-segment batching has something to merge.
    4 KiB blocks. *)

type t

exception Fs_error of string

val format : Blockdev.t -> t
(** A fresh, empty filesystem on the device. *)

(** {1 Directories} *)

val mkdir : t -> path:string -> unit
(** Creates parents as needed; existing directories are fine. *)

val list_dir : t -> path:string -> string list
(** Entry names, sorted.  Raises {!Fs_error} on a missing directory. *)

(** {1 Files} *)

val create : t -> path:string -> unit
(** An empty file; parents must exist.  Truncates an existing file. *)

val exists : t -> path:string -> bool

val write : t -> path:string -> off:int -> Bytes.t -> unit
(** Write at a byte offset, extending the file as needed. *)

val append : t -> path:string -> Bytes.t -> unit

val read : t -> path:string -> off:int -> len:int -> Bytes.t
(** Reads are clipped at end-of-file (short reads possible). *)

val size : t -> path:string -> int

val delete : t -> path:string -> unit
(** Removes a file, freeing its blocks.  Raises on directories. *)

val rename : t -> src:string -> dst:string -> unit

type stat = { st_size : int; st_blocks : int; st_is_dir : bool }

val stat : t -> path:string -> stat

(** {1 Introspection} *)

val free_blocks : t -> int
val file_count : t -> int
