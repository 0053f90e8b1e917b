(** Netback: Kite's from-scratch network backend driver.

    One instance per netfront in a guest.  Mirrors the paper's threaded
    design (§3.2, §4.2): the event-channel handler only wakes dedicated
    threads —

    - {e pusher}: drains Tx ring requests, grant-copies the frames out of
      guest memory and pushes them into the VIF (towards the bridge and
      the physical NIC);
    - {e soft_start}: takes frames arriving at the VIF, grant-copies them
      into the guest's posted Rx buffers and sends Rx responses.

    Kite vs Linux behaviour is captured by the {!Overheads.t} cost model.

    [serve] runs the backend-invocation watcher of §4.1: a xenstore watch
    on the backend directory spawns an instance for every frontend that
    appears. *)

type t
(** A serving backend driver (watcher + instances). *)

type instance

val serve :
  Xen_ctx.t ->
  domain:Kite_xen.Domain.t ->
  overheads:Overheads.t ->
  ?max_queues:int ->
  on_vif:(frontend:int -> devid:int -> Kite_net.Netdev.t -> unit) ->
  unit ->
  t
(** Start the backend in [domain].  [on_vif] is invoked (in process
    context) with each new VIF netdev and its frontend/devid — the
    network application adds it to the right bridge.  The watcher picks
    up frontends the toolstack registers under
    [/local/domain/<id>/backend/vif].  Transient NIC errors on the Tx
    path (fault-injected) are retried as {!Split.retries} says before
    the frame is dropped as a wire loss.

    [max_queues] (default 8) caps the queue count any multi-queue
    frontend may negotiate (advertised as multi-queue-max-queues, next
    to a max-ring-page-order of 2).  Each negotiated queue gets its own
    ring pair, event channel, backlog and pusher/soft_start threads;
    frames from the bridge are steered by {!Netchannel.flow_hash}. *)

val stop : t -> unit
(** Orderly teardown: unregister the directory watch, retire the watcher
    and per-instance threads, close the event channels.  Call from process
    context.  In-flight ring work is abandoned, so quiesce traffic first. *)

val crash : t -> unit
(** Abrupt death (driver domain destroyed mid-traffic): stop threads
    from touching the rings, drop the backlog and bookkeeping, but
    perform no orderly close — {!Toolstack.crash_driver_domain} revokes
    grants and event channels at the hypervisor.  Safe from any
    context. *)

val instances : t -> instance list

val rejected : t -> (int * int) list
(** (frontend domid, devid) pairs whose handshake failed trust-boundary
    validation: the backend reported a {!Guest_fault}, drove its own
    directory to Closed and will never serve the device. *)

val frontend_domid : instance -> int
val devid : instance -> int

val quarantine : instance -> Quarantine.t
(** The device's misbehavior ledger: fault counts per attack class and
    the current escalation level (throttle / detach / offline).  Every
    frontend-supplied ring index, grant reference, descriptor length,
    request id, negotiation key and xenbus state is validated at the
    trust boundary; each violation is a typed {!Guest_fault} reported
    via {!Kite_check.Check.guest_fault} and fed to this ledger. *)

val num_queues : instance -> int
(** Negotiated queue count (1 for a legacy frontend). *)

val tx_packets : instance -> int
(** Guest-to-wire packets forwarded. *)

val rx_packets : instance -> int
(** Wire-to-guest packets delivered into posted buffers. *)

val io_retries : instance -> int
(** Tx deliveries re-attempted after a transient NIC error. *)
