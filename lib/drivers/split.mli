(** The split-driver core: what both backends (and both frontends)
    would otherwise each carry a copy of.

    Backend side, on the model of Linux's [xenbus_probe_backend] and
    the paper's rumprun xenbus extension (§4.1, Table 1): device
    discovery under [backend/<ty>], one handshake process per device,
    the handshake checks, the per-device quarantine ladder and wakeup
    accounting.  Netback and blkback keep their rings, data paths,
    device-specific adverts, detach specifics and metric families; their
    counters reach the metrics registry only, never xenstore, so arming
    a registry costs the driver domain nothing.

    Frontend side: the backend-state monitor, the queue and ring-order
    negotiation and the multi-queue key writes.

    Every process name, watch token, trace name, fault-note key and
    checker message is built from the driver's own name (["netback"],
    ["blkback"]) and device type (["vif"], ["vbd"]), so each keeps the
    exact text the drivers used before they shared this code. *)

(** {1 Backend devices} *)

type dev = private {
  ctx : Xen_ctx.t;
  domain : Kite_xen.Domain.t;  (** the driver domain *)
  frontend : Kite_xen.Domain.t;
  devid : int;
  name : string;  (** ["vif3.0"]: span key, fault-note key, checker device *)
  drv : string;
  wake : string;
  ty : string;
  bpath : string;
  fpath : string;
  ov : Overheads.t;
  max_queues : int;
  guard : Quarantine.t;
  mutable mq : bool;  (** per-queue keys under queue-<n>/ *)
  mutable stop : bool;
  mutable last_activity : Kite_sim.Time.t;
  mutable state_guard : Kite_xen.Xenstore.watch_id option;
  mutable on_detach : unit -> unit;
  mutable on_crash : unit -> unit;
}
(** One backend device.  [stop] is set once the device is detached,
    offlined or its driver domain crashed; workers check it on every
    wakeup. *)

val fnote : dev -> string -> unit
(** A fault-injector recovery note keyed by the device name. *)

val touch : dev -> unit
(** Record activity now. *)

val wait : dev -> Kite_sim.Condition.t -> unit
(** A worker's sleep: wait on the condition, then, unless the device
    stopped meanwhile, pay the handler-to-thread wakeup (cold, warm or
    busy by the idle time since {!touch}, traced as ["<drv>.wake"]) and
    the quarantine's throttle penalty. *)

val kernel_grant_ops : dev -> int -> unit
(** Trace [n] zero-cost kernel grant-table hypercalls (the monolithic
    backend's profile; see {!Overheads}). *)

val spawn_worker : dev -> string -> int -> (unit -> unit) -> unit
(** [spawn_worker d role q work]: queue [q]'s worker thread,
    ["<drv>-<role>-F.D"] with a [.qN] suffix in the multi-queue
    layout. *)

val record_fault : dev -> attack:Guest_fault.attack -> detail:string -> unit
(** Report one rejected attack primitive (checker finding, flight
    incident, fault note) and apply the escalation its count has earned:
    throttle, detach (the [detach] hook of {!connect}) or offline
    (detach, then drive the backend directory to Closed).  Process
    context. *)

(** {2 Handshake}

    In order: the driver writes its own adverts, then {!advertise},
    reads its negotiation keys ({!num_queues}, {!want}), checks and maps
    the rings ({!own_ring}, {!map_ring}, {!map_rings}), binds the ports
    ({!bind}) and finishes with {!connect}.  Every check raises
    {!Guest_fault.Guest_fault}, which refuses the device. *)

val advertise : dev -> unit
(** Advertise multi-queue-max-queues and max-ring-page-order, enter
    InitWait and wait for the frontend's Initialised. *)

val num_queues : dev -> int
(** The frontend's queue count, capped at the advertised maximum; 1 for
    a legacy frontend.  Sets [mq] when the frontend asked. *)

val want : dev -> int -> string -> int
(** [want d q key]: the integer the frontend published under queue
    [q]'s [key]. *)

val own_ring : dev -> 'a Xenif.registry -> kind:string -> int -> unit
(** The reference must have been shared by this frontend.  [kind]
    prefixes the fault detail (["tx "], or [""]). *)

val map_ring : dev -> (int -> 'r) -> what:string -> int -> 'r
(** Map a reference; [Not_found] from the map is a fault naming
    [what] (["a tx ring"]). *)

val map_rings : dev -> pages:int -> unit
(** One batched map hypercall for all the ring pages. *)

val bind : dev -> Kite_xen.Event_channel.port -> unit

val connect : dev -> detach:(unit -> unit) -> crash:(unit -> unit) -> unit
(** Install the driver's teardown hooks, guard the frontend's xenbus
    state (an illegal transition is a {!record_fault}) and switch to
    Connected.  [detach] retires the device's threads and closes its
    channels; [crash] only stops them touching dead rings. *)

(** {2 Telemetry} *)

val guard_metrics :
  Kite_metrics.Registry.t -> dev -> (string * string) list -> unit
(** Register the device's guest-fault and quarantine-level series. *)

val retries : int
(** A transient device error (a fault-injected NIC or NVMe hiccup) is
    retried up to [retries] (4) times, the [n]th retry after
    [retry_backoff * 2^n] (50 us, 100 us, ...), before the backend gives
    the operation up. *)

val retry_backoff : Kite_sim.Time.span

(** {1 Backend service} *)

type 'i t
(** A serving backend: the discovery watch, the watcher and the
    instances it built. *)

val serve :
  Xen_ctx.t ->
  domain:Kite_xen.Domain.t ->
  overheads:Overheads.t ->
  drv:string ->
  ty:string ->
  max_queues:int ->
  make:(dev -> 'i) ->
  dev_of:('i -> dev) ->
  'i t
(** Watch [/local/domain/<id>/backend/<ty>] and run [make] in a
    ["<drv>-handshake-F.D"] process for every device that appears.  A
    {!Guest_fault.Guest_fault} out of [make] rejects the device: it is
    reported, its directory driven to Closed and it is never retried.
    A watch event skips the directory walk when no store node was
    created or removed since the last walk, as nothing new can be
    there. *)

val stop : 'i t -> unit
(** Unregister the watch, retire the watcher and detach every device.
    Process context. *)

val crash : 'i t -> unit
(** Abrupt death: drop the watches uncharged and stop every device's
    threads without an orderly close.  Safe from any context. *)

val instances : 'i t -> 'i list
val rejected : 'i t -> (int * int) list

(** {1 Frontend side} *)

val instrument :
  Xen_ctx.t -> ('req, 'rsp) Kite_xen.Ring.t -> name:string -> unit
(** Attach every armed sink (checker, tracer, fault injector, race
    detector) to a ring the frontend built, under [name]. *)

val negotiate :
  Kite_xen.Xenbus.t ->
  Kite_xen.Domain.t ->
  fpath:string ->
  bpath:string ->
  ask:int option ->
  int * bool
(** Queue count and multi-queue layout.  The ask is [ask] or else the
    toolstack's queues-wanted hint; the backend's multi-queue-max-queues
    caps it.  Either side silent, or a cap or ask below 1, means the
    legacy flat single ring.  Rings are one page in either layout: in
    multi-queue mode the backend's max-ring-page-order is read (a
    charged xenbus operation) and order 0 is asked for. *)

val write_mq_keys :
  Kite_xen.Xenbus.t -> Kite_xen.Domain.t -> fpath:string -> nq:int -> unit
(** Answer the backend with multi-queue-num-queues and
    multi-ring-page-order 0. *)

val monitor :
  Xen_ctx.t ->
  Kite_xen.Domain.t ->
  bpath:string ->
  token:string ->
  live:(unit -> bool) ->
  gone:(unit -> unit) ->
  Kite_xen.Xenstore.watch_id
(** Watch the backend's state node: while [live ()], a Closing, Closed
    or vanished backend calls [gone] — in engine context, so [gone]
    spawns the recovery work. *)
