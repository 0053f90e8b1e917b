open Kite_sim
open Kite_xen
open Kite_net
open Kite_drivers
module Report = Kite_check.Report
module Trace = Kite_trace.Trace
module Registry = Kite_metrics.Registry
module Flight = Kite_flight.Flight

type flavor = Kite | Linux

let flavor_name = function Kite -> "Kite" | Linux -> "Linux"

let overheads_of = function
  | Kite -> Overheads.kite
  | Linux -> Overheads.linux

(* Guest (DomU runs Ubuntu in both configurations) and client per-packet
   stack costs; see DESIGN.md §7. *)
let guest_rx_cost = Time.ns 1100
let client_rx_cost = Time.us 1

(* Every testbed built here registers orderly-teardown closures under
   its machine; [run] runs them at its result, so end-of-run audits
   (grant leaks, orphaned watches) inspect a quiesced system rather than
   steady-state buffers.  Registration is unconditional: the final audit
   only runs when the machine was armed with a checker, but the
   quiesce/stop/shutdown sequence itself must not depend on one. *)
let teardowns : (Hypervisor.t * (unit -> unit)) list ref = ref []
let on_teardown hv f = teardowns := (hv, f) :: !teardowns

(* Run and drop the selected machines' closures in registration order.
   A teardown that raises must not skip the others (each machine's
   audit runs last in its own), nor vanish: the first failure is raised
   once all have run.  Nothing runs or reads a machine after that, so
   its registry then keeps its polled values instead of the closures,
   which would keep the whole machine alive as long as the sink. *)
let teardown mine =
  let fs, rest = List.partition (fun (hv, _) -> mine hv) !teardowns in
  teardowns := rest;
  let failure = ref None in
  List.iter
    (fun (_, f) ->
      try f ()
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        if Option.is_none !failure then failure := Some (e, bt))
    (List.rev fs);
  List.iter
    (fun (hv, _) -> Option.iter Registry.freeze (Hypervisor.metrics_registry hv))
    fs;
  Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) !failure

let teardown_all () = teardown (fun _ -> true)

(* The incident snapshot's xenstore view: a DFS dump of the /local/domain
   subtree, captured lazily at trigger time (so a crash trigger that runs
   before Xenstore.rm still sees the doomed domain's home). *)
let store_dump hv () =
  let xs = Hypervisor.store hv in
  let rec walk path acc =
    let acc =
      match Xenstore.read xs ~path with
      | Some v when v <> "" -> (path, v) :: acc
      | _ -> acc
    in
    List.fold_left
      (fun acc child -> walk (path ^ "/" ^ child) acc)
      acc (Xenstore.directory xs ~path)
  in
  List.rev (walk "/local/domain" [])

(* One member per armed layer of the installed context, all named
   <tag><k> after the machine's number in the run ({!Obs.machine}), so
   names stay unique within each sink and do not depend on which sinks
   are armed.  The checker report is the one installed now, also for
   the teardown audits below. *)
let arm hv tag =
  let obs = Obs.current () in
  let name = Printf.sprintf "%s%d" tag (Obs.machine ()) in
  let member create sink = Option.map (fun s -> create s ~name) sink in
  let check =
    member (fun r ~name -> Kite_check.Check.create ~name r) obs.Obs.check
  in
  let race = member Kite_race.Race.create_in obs.Obs.race in
  let trace = member Trace.create_in obs.Obs.trace in
  let fault = member Kite_fault.Fault.create_in obs.Obs.fault in
  let metrics = member Registry.create_in obs.Obs.metrics in
  let path = member Kite_path.Path.create_in obs.Obs.path in
  let flight =
    let now () = Hypervisor.now hv in
    member (fun s ~name -> Flight.create_in s ~name ~now) obs.Obs.flight
  in
  let ctx =
    Xen_ctx.create ?check ?race ?trace ?fault ?metrics ?path ?flight hv
  in
  (* An orphaned hop/end (no span open on the thread) means a broken
     begin/end pairing somewhere in the instrumentation; the tracer counts
     them, and teardown surfaces a non-zero count as a checker warning
     instead of letting them vanish. *)
  (match (trace, obs.Obs.check) with
  | Some tr, Some report ->
      on_teardown hv (fun () ->
          let hops = Trace.orphan_hops tr and ends = Trace.orphan_ends tr in
          if hops + ends > 0 then
            Report.add report
              {
                Report.severity = Report.Warning;
                subsystem = "trace";
                rule = "span-orphaned";
                provenance = Trace.name tr;
                message =
                  Printf.sprintf
                    "%d orphaned span event(s) (%d hop, %d end): \
                     span_hop/span_end with no span open on the thread"
                    (hops + ends) hops ends;
              })
  | _ -> ());
  (* The path engine reads the tracer's spans and CPU charges, and
     mirrors its series into the registry; wired before either reaches
     it. *)
  Option.iter
    (fun p ->
      Option.iter (Kite_path.Path.tap_trace p) trace;
      Option.iter (Kite_path.Path.wire_metrics p) metrics)
    path;
  (* A Dom0 sampler daemon samples every instrument each
     [Registry.interval]; teardown stops it so audited runs quiesce. *)
  (match metrics with
  | Some r ->
      let stop = ref false in
      on_teardown hv (fun () -> stop := true);
      Hypervisor.spawn hv (Hypervisor.dom0 hv) ~daemon:true
        ~name:"metrics-sampler" (fun () ->
          while not !stop do
            Process.sleep Registry.interval;
            if not !stop then Registry.sample r ~at:(Hypervisor.now hv)
          done)
  | None -> ());
  (* The flight recorder taps every other armed layer and the checker
     report (shared run-wide, so with several machines the last-built one
     receives the findings records).  Teardown fires the sink's manual
     trigger, seals any open incident and runs the recorder's own audit. *)
  (match flight with
  | Some fl ->
      Option.iter (Flight.tap_trace fl) trace;
      Option.iter (Flight.tap_fault fl) fault;
      Option.iter (Flight.tap_metrics fl) metrics;
      Option.iter (Flight.tap_path fl) path;
      Option.iter (Flight.tap_report fl) obs.Obs.check;
      Flight.set_store_source fl (store_dump hv);
      on_teardown hv (fun () ->
          Flight.teardown fl;
          Option.iter (Flight.audit fl) obs.Obs.check)
  | None -> ());
  ctx

(* The teardown every testbed shares.  Drain in-flight I/O, stop the
   backend (unregisters its watch), give its threads a beat to park,
   then close the frontend; audit only when a checker is wired in.
   [stop] and [shutdown] are called at teardown time, so after a
   crash-and-restart cycle they can reach the respawned backend. *)
let register_teardown ctx ~dd ~stop ~shutdown =
  let hv = ctx.Xen_ctx.hv in
  on_teardown hv (fun () ->
      Hypervisor.run_for hv (Time.sec 1);
      Hypervisor.spawn hv dd ~name:"teardown" (fun () ->
          stop ();
          Process.sleep (Time.ms 1);
          (* The sleep is the only thing ordering us after the parked
             backend threads; claim their exit edges explicitly. *)
          if Kite_race.Race.active () then Kite_race.Race.scoped_quiesce ();
          shutdown ());
      Hypervisor.run_for hv (Time.ms 50);
      match ctx.Xen_ctx.check with
      | Some c ->
          Kite_check.Check.finalize c
            ~pending:(Engine.pending (Hypervisor.engine hv))
      | None -> ())

(* The one testbed runner: run until the experiment calls [finish],
   which stops the engine at that event's instant, so daemons such as
   the metrics sampler do not tick on after the result.  Only the first
   call counts: a late one must not cut short the teardown's drain.  The
   final snapshot gives an armed registry a point at the result. *)
let run hv ~what body =
  let result = ref None in
  let engine = Hypervisor.engine hv in
  body (fun v ->
      if Option.is_none !result then begin
        result := Some v;
        Engine.stop engine
      end);
  if Option.is_none !result then Engine.run_for engine (Time.sec 7200);
  match !result with
  | None -> failwith (what ^ ": experiment did not complete")
  | Some v ->
      Option.iter
        (fun r -> Registry.snapshot r ~at:(Hypervisor.now hv))
        (Hypervisor.metrics_registry hv);
      teardown (( == ) hv);
      v

(* Edge-triggered backend-health probe: silent until the handshake first
   reaches Connected, then any other state (a crashed or closing
   backend) raises a structured alert until the frontend's recovery
   reconnects.  Evaluated at sampling time from the Dom0 sampler as an
   observer's peek at the store: no xenstore operation is charged, so
   the sampler costs no simulated time.  A missing or unparsable node
   reads as Closed.  Registered only when the machine is armed with
   metrics. *)
let backend_state_probe ctx ~ty ~dd ~domu =
  match ctx.Xen_ctx.metrics with
  | None -> ()
  | Some reg ->
      let dev = ty ^ "0" in
      let path =
        Xenbus.backend_path ~backend:dd ~frontend:domu ~ty ~devid:0 ^ "/state"
      in
      let store = Hypervisor.store ctx.Xen_ctx.hv in
      let seen_connected = ref false in
      Registry.probe reg ~name:"kite_backend_state" [ ("dev", dev) ]
        (fun () ->
          let st =
            Option.bind (Xenstore.read store ~path) Xenbus.state_of_string
            |> Option.value ~default:Xenbus.Closed
          in
          if st = Xenbus.Connected then (
            seen_connected := true;
            Registry.Healthy)
          else if !seen_connected then
            Registry.Alert
              (Format.asprintf "backend %s state %a (expected Connected)" dev
                 Xenbus.pp_state st)
          else Registry.Healthy)

type net = {
  hv : Hypervisor.t;
  ctx : Xen_ctx.t;
  sched : Process.sched;
  dd : Domain.t;
  domu : Domain.t;
  guest_stack : Stack.t;
  guest_tcp : Tcp.t;
  client_stack : Stack.t;
  client_tcp : Tcp.t;
  netfront : Netfront.t;
  mutable net_app : Net_app.t;
  server_nic : Kite_devices.Nic.t;
  client_nic : Kite_devices.Nic.t;
  guest_ip : Ipv4addr.t;
}

(* The installed context's schedule seed arms the engine's explorer. *)
let hypervisor () =
  Hypervisor.create ?schedule_seed:(Obs.current ()).Obs.schedule_seed ()

let network ?overheads_override ~flavor ?(seed = 2022) ?num_queues ?impair
    () =
  let hv = hypervisor () in
  let ctx = arm hv ("net-" ^ flavor_name flavor ^ "-") in
  let sched = Hypervisor.sched hv in
  let profile =
    Kite_profiles.Os_profile.get
      (match flavor with
      | Kite -> Kite_profiles.Os_profile.Kite_network
      | Linux -> Kite_profiles.Os_profile.Linux_network)
  in
  let dd =
    Hypervisor.create_domain hv
      ~name:(flavor_name flavor ^ "-netdd")
      ~kind:Domain.Driver_domain
      ~vcpus:profile.Kite_profiles.Os_profile.vcpus
      ~mem_mb:profile.Kite_profiles.Os_profile.assigned_mem_mb
  in
  let domu =
    Hypervisor.create_domain hv ~name:"domu" ~kind:Domain.Dom_u ~vcpus:22
      ~mem_mb:5120
  in
  (* The testbed's two 82599ES NICs and the SFP+ cable (Table 2). *)
  let server_nic =
    Kite_devices.Nic.create sched ~name:"eth-srv" ~queue_limit:8192 ()
  in
  let client_nic =
    Kite_devices.Nic.create sched ~name:"eth-cli" ~queue_limit:8192 ()
  in
  Kite_devices.Nic.connect server_nic client_nic ~propagation:(Time.ns 500);
  (* Link impairments ride the cable, one independent seeded stream per
     direction, so enabling them never perturbs any other RNG. *)
  (match impair with
  | Some spec when spec <> Kite_net.Impair.none ->
      Kite_devices.Nic.set_impair server_nic
        (Some (Kite_net.Impair.create ~seed:(seed * 2 + 1) spec));
      Kite_devices.Nic.set_impair client_nic
        (Some (Kite_net.Impair.create ~seed:(seed * 2 + 2) spec))
  | _ -> ());
  let pci = Kite_devices.Pci.create () in
  Kite_devices.Pci.register pci ~bdf:"01:00.0" (Kite_devices.Pci.Nic server_nic);
  Kite_devices.Pci.assignable_add pci ~bdf:"01:00.0";
  let nic =
    match Kite_devices.Pci.attach pci ~bdf:"01:00.0" dd with
    | Kite_devices.Pci.Nic n -> n
    | Kite_devices.Pci.Nvme _ -> assert false
  in
  let overheads =
    Option.value overheads_override ~default:(overheads_of flavor)
  in
  Kite_devices.Nic.set_fault nic ctx.Xen_ctx.fault;
  backend_state_probe ctx ~ty:"vif" ~dd ~domu;
  let net_app = Net_app.run ctx ~domain:dd ~nic ~overheads () in
  (* The queue count is wired at both layers: the toolstack writes the
     guest-config hint and the frontend is given the explicit ask (the
     ask survives reconnects either way). *)
  Toolstack.add_vif ctx ~backend:dd ~frontend:domu ~devid:0
    ?queues:num_queues ();
  let netfront =
    Netfront.create ctx ~domain:domu ~backend:dd ~devid:0 ?num_queues ()
  in
  let guest_ip = Ipv4addr.of_string "10.0.0.2" in
  let guest_stack =
    Stack.create sched ~name:"guest" ~dev:(Netfront.netdev netfront)
      ~mac:(Macaddr.make_local 100) ~ip:guest_ip
      ~netmask:(Ipv4addr.of_string "255.255.255.0")
      ~rx_cost:guest_rx_cost ()
  in
  let client_stack =
    Stack.create sched ~name:"client" ~dev:(Netif.of_nic client_nic)
      ~mac:(Macaddr.make_local 200)
      ~ip:(Ipv4addr.of_string "10.0.0.9")
      ~netmask:(Ipv4addr.of_string "255.255.255.0")
      ~rx_cost:client_rx_cost ()
  in
  let s =
    {
      hv;
      ctx;
      sched;
      dd;
      domu;
      guest_stack;
      guest_tcp = Tcp.attach guest_stack;
      client_stack;
      client_tcp = Tcp.attach client_stack;
      netfront;
      net_app;
      server_nic;
      client_nic;
      guest_ip;
    }
  in
  register_teardown ctx ~dd
    ~stop:(fun () -> Netback.stop (Net_app.netback s.net_app))
    ~shutdown:(fun () -> Netfront.shutdown netfront);
  s

let when_net_ready net f =
  Process.spawn net.sched ~name:"when-ready" (fun () ->
      Netfront.wait_connected net.netfront;
      (* Give ARP/bridge learning a beat, as a human experimenter would. *)
      Process.sleep (Time.ms 5);
      f ())

type blk = {
  bhv : Hypervisor.t;
  bctx : Xen_ctx.t;
  bsched : Process.sched;
  bdd : Domain.t;
  bdomu : Domain.t;
  blkfront : Blkfront.t;
  mutable blk_app : Blk_app.t;
  nvme : Kite_devices.Nvme.t;
}

let storage ~flavor ?(feature_persistent = true) ?(feature_indirect = true)
    ?(batching = true) ?num_queues () =
  let hv = hypervisor () in
  let ctx = arm hv ("blk-" ^ flavor_name flavor ^ "-") in
  let sched = Hypervisor.sched hv in
  let profile =
    Kite_profiles.Os_profile.get
      (match flavor with
      | Kite -> Kite_profiles.Os_profile.Kite_storage
      | Linux -> Kite_profiles.Os_profile.Linux_storage)
  in
  let dd =
    Hypervisor.create_domain hv
      ~name:(flavor_name flavor ^ "-stordd")
      ~kind:Domain.Driver_domain
      ~vcpus:profile.Kite_profiles.Os_profile.vcpus
      ~mem_mb:profile.Kite_profiles.Os_profile.assigned_mem_mb
  in
  let domu =
    Hypervisor.create_domain hv ~name:"domu" ~kind:Domain.Dom_u ~vcpus:22
      ~mem_mb:5120
  in
  (* Samsung 970 EVO Plus-ish NVMe (Table 2). *)
  let nvme =
    Kite_devices.Nvme.create sched ~name:"nvme0"
      ~capacity_sectors:(1 lsl 26) (* 32 GiB addressed by the experiments *)
      ()
  in
  let pci = Kite_devices.Pci.create () in
  Kite_devices.Pci.register pci ~bdf:"02:00.0" (Kite_devices.Pci.Nvme nvme);
  Kite_devices.Pci.assignable_add pci ~bdf:"02:00.0";
  ignore (Kite_devices.Pci.attach pci ~bdf:"02:00.0" dd);
  Kite_devices.Nvme.set_fault nvme ctx.Xen_ctx.fault;
  backend_state_probe ctx ~ty:"vbd" ~dd ~domu;
  let blk_app =
    Blk_app.run ctx ~domain:dd ~nvme ~overheads:(overheads_of flavor)
      ~feature_persistent ~feature_indirect ~batching ()
  in
  Toolstack.add_vbd ctx ~backend:dd ~frontend:domu ~devid:0
    ?queues:num_queues ();
  let blkfront =
    Blkfront.create ctx ~domain:domu ~backend:dd ~devid:0 ?num_queues ()
  in
  let s =
    { bhv = hv; bctx = ctx; bsched = sched; bdd = dd; bdomu = domu;
      blkfront; blk_app; nvme }
  in
  (* Backend first: its persistent-reference sweep must unmap before
     blkfront revokes the pool. *)
  register_teardown ctx ~dd
    ~stop:(fun () -> Blkback.stop (Blk_app.blkback s.blk_app))
    ~shutdown:(fun () -> Blkfront.shutdown blkfront);
  s

let blockdev blk =
  {
    Kite_vfs.Blockdev.name = "xvda";
    capacity_sectors = Blkfront.capacity_sectors blk.blkfront;
    read = (fun ~sector ~count -> Blkfront.read blk.blkfront ~sector ~count);
    write = (fun ~sector data -> Blkfront.write blk.blkfront ~sector data);
    flush = (fun () -> Blkfront.flush blk.blkfront);
  }

let when_blk_ready blk f =
  Hypervisor.spawn blk.bhv blk.bdomu ~name:"when-ready" (fun () ->
      Blkfront.wait_connected blk.blkfront;
      f ())

(* Crash-and-restart cycles (the restart-recovery experiment): destroy
   the driver domain mid-flight, rebuild it with its flavor's boot
   profile, respawn the backend application and re-register the device,
   then wait for the frontend's own recovery to reconnect.  Downtime is
   crash instant -> frontend reconnected. *)

let boot_profile_net = function
  | Kite -> Kite_profiles.Boot.kite_network
  | Linux -> Kite_profiles.Boot.linux_driver_domain

let boot_profile_blk = function
  | Kite -> Kite_profiles.Boot.kite_storage
  | Linux -> Kite_profiles.Boot.linux_driver_domain

let crash_and_restart_blk s ~flavor ~at ?on_restored () =
  let hv = s.bhv in
  Hypervisor.spawn hv (Hypervisor.dom0 hv) ~name:"dd-reboot" (fun () ->
      Process.sleep at;
      let gen0 = Blkfront.reconnects s.blkfront in
      let t0 = Hypervisor.now hv in
      Blkback.crash (Blk_app.blkback s.blk_app);
      Toolstack.crash_driver_domain s.bctx s.bdd;
      Toolstack.restart_driver_domain s.bctx s.bdd
        ~boot:(boot_profile_blk flavor)
        ~respawn:(fun () ->
          s.blk_app <-
            Blk_app.run s.bctx ~domain:s.bdd ~nvme:s.nvme
              ~overheads:(overheads_of flavor) ();
          Toolstack.add_vbd s.bctx ~backend:s.bdd ~frontend:s.bdomu ~devid:0
            ())
        ~on_ready:(fun () ->
          while
            not
              (Blkfront.reconnects s.blkfront > gen0
              && Blkfront.is_connected s.blkfront)
          do
            Process.sleep (Time.ms 1)
          done;
          let downtime = Hypervisor.now hv - t0 in
          (match s.bctx.Xen_ctx.flight with
          | Some fl ->
              Flight.mark fl ~what:"recovery"
                ~msg:
                  (Printf.sprintf "blkfront reconnected, downtime %d ns"
                     downtime)
          | None -> ());
          match on_restored with Some f -> f ~downtime | None -> ()))

let crash_and_restart_net s ~flavor ~at ?on_restored () =
  let hv = s.hv in
  Hypervisor.spawn hv (Hypervisor.dom0 hv) ~name:"dd-reboot" (fun () ->
      Process.sleep at;
      let gen0 = Netfront.reconnects s.netfront in
      let t0 = Hypervisor.now hv in
      Netback.crash (Net_app.netback s.net_app);
      Toolstack.crash_driver_domain s.ctx s.dd;
      Toolstack.restart_driver_domain s.ctx s.dd
        ~boot:(boot_profile_net flavor)
        ~respawn:(fun () ->
          (* Same physical NIC: the respawned app re-wraps it and builds a
             fresh bridge; the crashed app's bridge is orphaned. *)
          s.net_app <-
            Net_app.run s.ctx ~domain:s.dd ~nic:s.server_nic
              ~overheads:(overheads_of flavor) ();
          Toolstack.add_vif s.ctx ~backend:s.dd ~frontend:s.domu ~devid:0 ())
        ~on_ready:(fun () ->
          while
            not
              (Netfront.reconnects s.netfront > gen0
              && Netfront.connected s.netfront)
          do
            Process.sleep (Time.ms 1)
          done;
          let downtime = Hypervisor.now hv - t0 in
          (match s.ctx.Xen_ctx.flight with
          | Some fl ->
              Flight.mark fl ~what:"recovery"
                ~msg:
                  (Printf.sprintf "netfront reconnected, downtime %d ns"
                     downtime)
          | None -> ());
          match on_restored with Some f -> f ~downtime | None -> ()))
