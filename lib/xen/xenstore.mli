(** The xenstore database.

    A hierarchical key/value store shared between domains, maintained by
    the xenstored daemon in Dom0.  Backends and frontends advertise their
    capabilities and exchange connection parameters through it, and set
    {e watches} to learn about the other end's activity — exactly the
    mechanism Kite had to add to rumprun's HVM mode.

    This module is the pure database: paths, nodes, permissions, watches
    and transactions.  Access costs and asynchronous watch delivery are
    added by {!Xenbus}, which is what driver code uses. *)

type t

exception Permission_denied of string
(** Raised when a domain writes outside the subtrees it owns. *)

val create : unit -> t

val set_check : t -> Kite_check.Check.t option -> unit
(** Attach the xenstore lint: orphaned watches, transactions left open at
    the end of a run, and denied writes. *)

val set_fault : t -> Kite_fault.Fault.t option -> unit
(** Attach the fault injector.  [Xenstore_write] injections drop a write
    before it touches the tree (no mutation, no watch); the key is the
    written path.  [Xenstore_watch] injections lose a single watch-event
    delivery; the key is the changed path. *)

val set_race : t -> Kite_race.Race.t option -> unit
(** Attach the race detector: store nodes become release/acquire channels
    (write releases, read acquires) with a per-path write-generation
    check that flags non-transactional read-modify-writes spanning a
    blocking point (see [Kite_race.Race.xs_write]). *)

(** {1 Basic operations}

    Paths are ['/']-separated, e.g. ["/local/domain/3/device/vif/0/state"].
    [domid] identifies the calling domain; domain 0 may write anywhere,
    other domains only below nodes they own. *)

val write : t -> domid:int -> path:string -> string -> unit
(** Create or update a value; intermediate nodes are created and owned by
    the owner of the nearest existing ancestor. *)

val read : t -> path:string -> string option

val mkdir : t -> domid:int -> path:string -> unit

val rm : t -> domid:int -> path:string -> unit
(** Remove a subtree.  Removing a missing path is a no-op.  As in
    xenstored, watches registered on paths {e below} the removed node
    fire too (with the watch's own path), so a frontend watching
    [.../state] learns when the whole backend home vanishes. *)

val exists : t -> path:string -> bool

val directory : t -> path:string -> string list
(** Child names, sorted; [] for a missing path. *)

val set_owner : t -> path:string -> domid:int -> unit
(** Give a domain ownership of a subtree (what [xl] does when it creates
    [/local/domain/<id>]).  Only meaningful on existing paths. *)

val generation : t -> int
(** Bumped on every successful mutation. *)

val shape_generation : t -> int
(** Bumped whenever a node is created or a subtree removed, not when a
    value changes: while it stands still, every {!directory} listing
    does too. *)

(** {1 Watches}

    A watch fires (synchronously, from the mutating call) whenever a node
    at or below the watched path is created, modified or removed.  Per Xen
    semantics it also fires once immediately upon registration. *)

type watch_id

val watch :
  t -> path:string -> token:string -> (path:string -> token:string -> unit) ->
  watch_id

val unwatch : t -> watch_id -> unit

(** {1 Transactions}

    Coarse-grained optimistic concurrency, like xenstored's: a transaction
    buffers writes and commits them atomically; if the store changed since
    the transaction started, the commit fails with [`Conflict] and the
    caller retries. *)

type tx

val tx_start : t -> tx
val tx_write : tx -> domid:int -> path:string -> string -> unit
val tx_read : tx -> path:string -> string option
(** Reads see the transaction's own buffered writes. *)

val tx_commit : tx -> [ `Committed | `Conflict ]
val tx_abort : tx -> unit

(** {1 Paths} *)

val split_path : string -> string list
(** ["/a/b//c"] -> [["a"; "b"; "c"]].  Raises [Invalid_argument] on the
    empty path. *)
