(** Per-machine bundle of the hypervisor services split drivers use. *)

type t = {
  hv : Kite_xen.Hypervisor.t;
  xb : Kite_xen.Xenbus.t;
  ec : Kite_xen.Event_channel.t;
  gt : Kite_xen.Grant_table.t;
  netrings : Netchannel.registry;
  blkrings : Blkif.registry;
  check : Kite_check.Check.t option;
  trace : Kite_trace.Trace.t option;
  fault : Kite_fault.Fault.t option;
  metrics : Kite_metrics.Registry.t option;
  race : Kite_race.Race.t option;
  flight : Kite_flight.Flight.t option;
  path : Kite_path.Path.t option;
}

val create :
  ?check:Kite_check.Check.t ->
  ?race:Kite_race.Race.t ->
  ?trace:Kite_trace.Trace.t ->
  ?fault:Kite_fault.Fault.t ->
  ?metrics:Kite_metrics.Registry.t ->
  ?path:Kite_path.Path.t ->
  ?flight:Kite_flight.Flight.t ->
  Kite_xen.Hypervisor.t ->
  t
(** The machine's services, with each given observability member wired
    into the machine-wide ones before any driver is spawned:
    - [check]: scheduler hooks, the grant table, the xenstore and xenbus;
    - [race]: scheduler vector clocks and block epochs, store-node
      channels, event-channel notify→deliver edges, grant-entry access
      checks;
    - [trace]: hypervisor charges and the scheduler;
    - [fault]: event-channel notification drops and xenstore write/watch
      loss;
    - [metrics]: scheduler and per-domain busy gauges, grant-table and
      event-channel counters (polled closures evaluated at sampling
      time);
    - [path]: carried only, for experiments that read their machine's
      engine; it taps the tracer, whose spans and CPU charges it reads;
    - [flight]: carried only, so the toolstack's crash/restart paths can
      feed its triggers.
    Rings, per-queue driver state, drivers' instruments and devices see
    the members through this record as drivers connect.  [Scenario.arm]
    builds the members and installs the cross-layer taps. *)
