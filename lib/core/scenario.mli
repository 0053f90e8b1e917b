(** Ready-made testbeds mirroring the paper's evaluation setup (Table 2):
    a Xen server machine hosting a driver domain (Kite or Ubuntu flavored)
    and a DomU running the server application, cabled to a bare-metal
    client machine that generates load. *)

type flavor = Kite | Linux

val flavor_name : flavor -> string

val teardown_all : unit -> unit
(** Tear down every testbed that no {!run} has: machines driven by a
    fixed [Hypervisor.run_for] window.  Each runs the teardown {!run}
    would run, freeze included; all of them run even when one raises,
    the list of teardowns is then empty and the first exception is
    re-raised. *)

val arm : Kite_xen.Hypervisor.t -> string -> Kite_drivers.Xen_ctx.t
(** The machine's context, armed from the installed {!Obs} context: one
    member per armed layer, every one named [<tag><k>] where [k] is the
    machine's number in the run ({!Obs.machine}), whichever sinks are
    armed.  Also installs the path engine's taps on the tracer and
    registry, the flight recorder's taps on every other layer and the
    checker report, the Dom0 metrics sampler, and their teardowns
    (span-orphan warning, sampler stop, flight teardown and audit).  The
    sampler only observes: its probes peek at the store and cost no
    simulated time, so an armed machine runs exactly as a disarmed one.
    {!network} and {!storage} arm through it; a hand-built testbed must
    also {!register_teardown}. *)

val register_teardown :
  Kite_drivers.Xen_ctx.t ->
  dd:Kite_xen.Domain.t ->
  stop:(unit -> unit) ->
  shutdown:(unit -> unit) ->
  unit
(** The teardown every testbed shares, run at its result by {!run}:
    drain 1 s, stop the backend ([stop], in a process of [dd]), claim the
    parked threads' exit edges, shut down the frontend ([shutdown]), run
    50 ms, then finalize the machine's checker when it has one. *)

val run :
  Kite_xen.Hypervisor.t -> what:string -> (('a -> unit) -> unit) -> 'a
(** [run hv ~what body] calls [body finish], then runs the machine until
    [finish v] is called and returns [v].  The engine stops once the
    event that called [finish] is done, with the clock at its instant.
    When a metrics registry is armed, its last sample is a
    {!Kite_metrics.Registry.snapshot} at that instant.  Then [hv]'s
    testbed is torn down: the closures {!arm} and {!register_teardown}
    registered for it run in that order, its metrics registry is frozen
    ({!Kite_metrics.Registry.freeze}), and the first failure is
    re-raised once all have run.  Read the machine in [body] and pass
    [finish] what the caller needs.  Later calls to [finish] are
    ignored.  Fails with ["<what>: experiment did not complete"], leaving
    the testbed registered, if the queue drains or 7200 simulated seconds
    pass before [finish]. *)

(** {1 Network domain testbed} *)

type net = {
  hv : Kite_xen.Hypervisor.t;
  ctx : Kite_drivers.Xen_ctx.t;
  sched : Kite_sim.Process.sched;
  dd : Kite_xen.Domain.t;
  domu : Kite_xen.Domain.t;
  guest_stack : Kite_net.Stack.t;
  guest_tcp : Kite_net.Tcp.t;
  client_stack : Kite_net.Stack.t;
  client_tcp : Kite_net.Tcp.t;
  netfront : Kite_drivers.Netfront.t;
  mutable net_app : Kite_drivers.Net_app.t;
      (** Replaced by {!crash_and_restart_net} when the backend domain is
          rebuilt. *)
  server_nic : Kite_devices.Nic.t;
  client_nic : Kite_devices.Nic.t;
  guest_ip : Kite_net.Ipv4addr.t;
}

val network :
  ?overheads_override:Kite_drivers.Overheads.t ->
  flavor:flavor ->
  ?seed:int ->
  ?num_queues:int ->
  ?impair:Kite_net.Impair.spec ->
  unit ->
  net
(** Build the network-domain testbed; drive it with {!run}.  The
    netfront handshake happens in simulated time — use {!when_net_ready}
    to sequence load behind it.
    [num_queues] turns on the multi-queue dataplane: the toolstack
    writes the guest-config hint and the frontend negotiates that many
    Tx/Rx ring pairs (capped by netback).  [impair] puts seeded
    loss/reorder/delay on both directions of the cable (streams derived
    from [seed], default 2022, which seeds nothing else;
    {!Kite_net.Impair.none} leaves the link ideal).
    [overheads_override] replaces [flavor]'s driver-domain overheads
    (the threading ablation).  The machine is {!arm}ed; with metrics
    armed, a [kite_backend_state] probe alerts if the vif backend leaves
    Connected after the first handshake.  The probe reads the backend's
    [state] node straight from the store, uncharged; a missing or
    unparsable node counts as not Connected. *)

val when_net_ready : net -> (unit -> unit) -> unit
(** Spawn [f] as a client-side process once the frontend is connected. *)

(** {1 Storage domain testbed} *)

type blk = {
  bhv : Kite_xen.Hypervisor.t;
  bctx : Kite_drivers.Xen_ctx.t;
  bsched : Kite_sim.Process.sched;
  bdd : Kite_xen.Domain.t;
  bdomu : Kite_xen.Domain.t;
  blkfront : Kite_drivers.Blkfront.t;
  mutable blk_app : Kite_drivers.Blk_app.t;
      (** Replaced by {!crash_and_restart_blk} when the backend domain is
          rebuilt. *)
  nvme : Kite_devices.Nvme.t;
}

val storage :
  flavor:flavor ->
  ?feature_persistent:bool ->
  ?feature_indirect:bool ->
  ?batching:bool ->
  ?num_queues:int ->
  unit ->
  blk
(** The feature flags exist for the ablation benchmarks.  There is no
    seed: nothing on the storage path draws a random number.  [num_queues]
    negotiates that many blkif rings (capped by blkback); omitted means
    the legacy single ring.  Armed like {!network}, with the same
    backend-state probe for the vbd backend. *)

val blockdev : blk -> Kite_vfs.Blockdev.t
(** The guest's paravirtual disk as a {!Kite_vfs.Blockdev} (every
    operation crosses blkfront -> blkback -> NVMe).  The capacity field is
    read at call time, so call this after the handshake has completed
    (e.g. inside {!when_blk_ready}) if you need the geometry. *)

val when_blk_ready : blk -> (unit -> unit) -> unit
(** Spawn [f] as a DomU process once blkfront is connected. *)

(** {1 Crash-and-restart cycles (restart-recovery experiment)} *)

val crash_and_restart_blk :
  blk ->
  flavor:flavor ->
  at:Kite_sim.Time.span ->
  ?on_restored:(downtime:Kite_sim.Time.span -> unit) ->
  unit ->
  unit
(** Schedule a driver-domain crash [at] after now: the backend is
    destroyed mid-I/O ({!Kite_drivers.Blkback.crash} +
    {!Kite_drivers.Toolstack.crash_driver_domain}), rebuilt with
    [flavor]'s boot profile, and the device re-registered; blkfront's own
    recovery re-handshakes and replays its journal.  [on_restored] runs
    (in process context) once the frontend is connected again, with the
    measured crash-to-reconnect downtime. *)

val crash_and_restart_net :
  net ->
  flavor:flavor ->
  at:Kite_sim.Time.span ->
  ?on_restored:(downtime:Kite_sim.Time.span -> unit) ->
  unit ->
  unit
(** Same cycle for the network domain: in-flight frames are lost (a cable
    pull), then Tx/Rx resume against the respawned backend with fresh
    rings and grants. *)
