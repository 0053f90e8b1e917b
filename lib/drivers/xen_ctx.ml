(* The bundle of hypervisor services a split driver needs: xenbus for the
   handshake, event channels for notifications, a grant table for shared
   memory, plus the shared-ring registries that stand in for mapping ring
   pages.  One per simulated machine, with the machine's observability
   members (built by Scenario.arm) wired in at creation. *)

open Kite_xen

type t = {
  hv : Hypervisor.t;
  xb : Xenbus.t;
  ec : Event_channel.t;
  gt : Grant_table.t;
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

let create ?check ?race ?trace ?fault ?metrics ?path ?flight hv =
  let t =
    {
      hv;
      xb = Xenbus.create hv;
      ec = Event_channel.create hv;
      gt = Grant_table.create hv;
      netrings = Netchannel.registry ();
      blkrings = Blkif.registry ();
      check;
      trace;
      fault;
      metrics;
      race;
      flight;
      path;
    }
  in
  (* Wire the members into the machine-wide services (an absent member
     leaves its hook unset).  Rings, per-queue driver state and devices
     see them through this record as drivers connect. *)
  let sched = Hypervisor.sched hv and store = Hypervisor.store hv in
  Kite_sim.Process.set_check sched check;
  Grant_table.set_check t.gt check;
  Xenstore.set_check store check;
  Xenbus.set_check t.xb check;
  Kite_sim.Process.set_race sched race;
  Xenstore.set_race store race;
  Event_channel.set_race t.ec race;
  Grant_table.set_race t.gt race;
  Hypervisor.set_trace hv trace;
  Event_channel.set_fault t.ec fault;
  Xenstore.set_fault store fault;
  (* Scheduler + per-domain busy gauges; the machine-wide services keep
     their own counters, so everything here is a polled closure. *)
  Hypervisor.set_metrics hv metrics;
  (match metrics with
  | Some r ->
      let module R = Kite_metrics.Registry in
      R.counter_fn r "kite_grant_maps_total" ~help:"Grant map operations" []
        (fun () -> Grant_table.map_count t.gt);
      R.counter_fn r "kite_grant_unmaps_total" ~help:"Grant unmap operations"
        [] (fun () -> Grant_table.unmap_count t.gt);
      R.counter_fn r "kite_grant_copies_total"
        ~help:"GNTTABOP_copy operations" [] (fun () ->
          Grant_table.copy_count t.gt);
      R.gauge_fn r "kite_grant_active" ~help:"Grants currently in the table"
        [] (fun () -> float_of_int (Grant_table.active_grants t.gt));
      R.counter_fn r "kite_evtchn_notifications_total"
        ~help:"Notify hypercalls issued (before coalescing)" [] (fun () ->
          Event_channel.notifications_sent t.ec);
      R.counter_fn r "kite_evtchn_delivered_total"
        ~help:"Handler invocations performed (after coalescing)" []
        (fun () -> Event_channel.notifications_delivered t.ec);
      R.counter_fn r "kite_evtchn_dropped_total"
        ~help:"Notifications lost to fault injection" [] (fun () ->
          Event_channel.notifications_dropped t.ec)
  | None -> ());
  t
