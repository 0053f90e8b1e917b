(** Simulated costs of hypervisor operations.

    Kite's design decisions (grant-copy vs map, persistent references,
    request batching, threaded handlers) all trade hypercall count against
    other work, so hypercall costs are the load-bearing constants of the
    model.  Values are centralized here; {!default} is calibrated once
    from the paper's measured deltas (see DESIGN.md §7) and shared by every
    experiment. *)

type t = {
  hypercall_base : Kite_sim.Time.span;
      (** world switch into and out of the hypervisor *)
  evtchn_send : Kite_sim.Time.span;  (** EVTCHNOP_send work *)
  interrupt_latency : Kite_sim.Time.span;
      (** delivery of a virtual interrupt to the remote vCPU *)
  grant_map : Kite_sim.Time.span;  (** map one granted page *)
  grant_unmap : Kite_sim.Time.span;
  grant_copy_base : Kite_sim.Time.span;  (** GNTTABOP_copy fixed part *)
  grant_copy_per_kb : Kite_sim.Time.span;  (** GNTTABOP_copy per KiB *)
  xenstore_op : Kite_sim.Time.span;
      (** one xenstore round trip through xenstored *)
  memcpy_per_kb : Kite_sim.Time.span;  (** intra-domain copy per KiB *)
}

val default : t
(** Calibration (all within the ballpark of published Xen measurements):
    hypercall 300 ns, event send 500 ns, interrupt delivery 4 us, grant
    map/unmap 900/700 ns, grant copy 450 ns + 150 ns/KiB, xenstore round
    trip 30 us, memcpy 60 ns/KiB. *)
