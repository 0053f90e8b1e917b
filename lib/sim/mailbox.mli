(** Unbounded FIFO message queues with blocking receive.

    Mailboxes carry packets, block requests and control messages between
    simulated threads and domains. *)

type 'a t

val create : ?label:string -> unit -> 'a t
(** [label] names the mailbox in the checker's deadlock report. *)

val send : 'a t -> 'a -> unit
(** Enqueue a message and wake one waiting receiver.  Never blocks. *)

val recv : 'a t -> 'a
(** Dequeue a message, blocking the calling process while the mailbox is
    empty. *)

val recv_timeout : 'a t -> Time.span -> 'a option
(** Like {!recv} but returns [None] if nothing arrives within the span. *)

val length : 'a t -> int
