(** Xenbus: the driver-facing interface to xenstore.

    Real drivers never touch xenstored's database directly — they go
    through xenbus, which adds the access cost (a ring round trip to
    xenstored in Dom0), asynchronous watch delivery, the device state
    machine used by the frontend/backend handshake, and the standard
    device path layout.  This is the layer Kite had to implement for
    rumprun HVM. *)

(** Device connection states, with the xenstore encoding of
    [enum xenbus_state]. *)
type state =
  | Initialising  (** 1 *)
  | Init_wait  (** 2 *)
  | Initialised  (** 3 *)
  | Connected  (** 4 *)
  | Closing  (** 5 *)
  | Closed  (** 6 *)

val state_to_string : state -> string
(** The numeric wire encoding, e.g. [Connected] -> "4". *)

val state_of_string : string -> state option

val pp_state : Format.formatter -> state -> unit

val legal_transition : from_:state -> to_:state -> bool
(** The edges of the xenbus device state machine, including the
    reconnect edges ([Closing]/[Closed] -> [Initialising]) taken when a
    crashed backend is rebooted.  Same-state rewrites are legal. *)

type t

val create : Hypervisor.t -> t

val set_check : t -> Kite_check.Check.t option -> unit
(** Attach the protocol checker: {!read_state} reports unparsable state
    values and {!switch_state} reports illegal transitions. *)

(** {1 Charged xenstore access}

    Each call costs one xenstore round trip to the calling domain. *)

val write : t -> Domain.t -> path:string -> string -> unit
val read : t -> Domain.t -> path:string -> string option
val read_int : t -> Domain.t -> path:string -> int option

val watch :
  t -> Domain.t -> path:string -> token:string ->
  (path:string -> token:string -> unit) -> Xenstore.watch_id
(** Watch events are delivered asynchronously, one xenstore latency after
    the triggering write, mirroring xenstored's notification path. *)

val unwatch : t -> Xenstore.watch_id -> unit

(** {1 Device state machine} *)

val switch_state : t -> Domain.t -> path:string -> state -> unit
(** Write [<path>/state].  Illegal transitions are reported through the
    attached checker (the write still happens — this is a lint, not an
    enforcement point).  The write is read back and retried a bounded
    number of times, modelling the xenbus client's synchronous-ack
    discipline, so an injected xenstore write loss delays rather than
    wedges a handshake. *)

val read_state : t -> Domain.t -> path:string -> state
(** Defaults to [Closed] when absent.  An unparsable value also reads as
    [Closed] — the safe interpretation — but is reported through the
    attached checker as a protocol violation instead of being silently
    masked. *)

val wait_for_state :
  t -> Domain.t -> path:string -> state -> unit
(** Block the calling process until [<path>/state] reads the given state.
    Returns immediately if already there.  Re-polls on a coarse timer in
    addition to the watch, so a lost watch event delays the wait instead
    of wedging it. *)

val guard_peer_state :
  t ->
  Domain.t ->
  path:string ->
  on_illegal:(from_:string -> to_:string -> unit) ->
  Xenstore.watch_id
(** Backend-side validation of *peer-driven* state transitions: watch
    [<path>/state] (the peer's device directory), track the last legally
    reached state, and invoke [on_illegal] — in engine context, with
    human-readable state names — for every write that is an unparsable
    value or not an edge of {!legal_transition}.  The guard never
    follows the peer into a bogus state: its notion of "current" stays
    at the last legal value, so a hostile frontend cannot drag the
    backend's handshake tracking along.  Returns the watch id; callers
    must {!unwatch} it on teardown. *)

(** {1 Standard device paths} *)

val backend_path :
  backend:Domain.t -> frontend:Domain.t -> ty:string -> devid:int -> string
(** ["/local/domain/<b>/backend/<ty>/<f>/<devid>"]. *)

val frontend_path : frontend:Domain.t -> ty:string -> devid:int -> string
(** ["/local/domain/<f>/device/<ty>/<devid>"]. *)
