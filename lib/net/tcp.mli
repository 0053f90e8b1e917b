(** TCP engine over a {!Stack}.

    A deliberately compact but real TCP: three-way handshake, MSS-sized
    segmentation, cumulative ACKs, peer-advertised flow control plus
    Reno-style congestion control (slow start / congestion avoidance,
    multiplicative decrease on retransmission timeout), go-back-N
    retransmission, and FIN teardown.  No SACK, no fast retransmit, no
    out-of-order reassembly — the simulated network never reorders, so
    those only matter after a loss, which the RTO path covers. *)

type t

val attach : Stack.t -> t
(** Install the TCP receive handler on a stack.  Call once per stack. *)

type conn

exception Connection_refused of string
exception Connection_closed of string

(** {1 Server side} *)

type listener

val listen : t -> port:int -> listener
(** Raises [Invalid_argument] if the port is already listened on. *)

val accept : listener -> conn
(** Block until a connection arrives (it may still be completing its
    handshake; sends are queued until it does). *)

val accept_timeout : listener -> Kite_sim.Time.span -> conn option

(** {1 Client side} *)

val connect : t -> dst:Ipv4addr.t -> port:int -> conn
(** Blocking active open.  Raises {!Connection_refused} on RST or
    handshake timeout. *)

(** {1 Data transfer} *)

val send : conn -> Bytes.t -> unit
(** Queue bytes for transmission; blocks while the send buffer is full
    (backpressure).  Raises {!Connection_closed} after [close] or reset.

    The buffer is queued by reference, not copied: the caller must not
    modify [data] after the call.  Each segment copies its bytes out of
    the queue when the sender transmits it. *)

val recv : conn -> max:int -> Bytes.t option
(** Block until data is available, then return at most [max] bytes.
    [None] once the peer has closed and the buffer is drained. *)

(** The two readers below wait until what they return is queued whole,
    then copy it out of the received segments once.  At end of stream
    they return [None] and leave any partial line or body queued. *)

val recv_line : conn -> string option
(** The next ['\n']-terminated line, terminator stripped (a ['\r']
    before it is kept). *)

val recv_exact : conn -> len:int -> Bytes.t option
(** The next [len] bytes. *)

val close : conn -> unit
(** Graceful close: queued data is flushed, then FIN. *)

val state_name : conn -> string

val retransmissions : t -> int
(** Total RTO-triggered retransmissions on this stack (loss indicator). *)
