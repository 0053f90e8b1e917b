(* The multi-queue dataplane: randomized ring protocol properties, the
   negotiation/fallback matrix, the throughput claims (1 queue = legacy
   ring exactly, 4 queues >= 2x of 1), a seeded stress sweep over random
   queue counts x fault plans x crash/restart, and the labelled-metrics
   dedup regression. *)

open Kite_sim
open Kite_xen
module Check = Kite_check.Check
module Report = Kite_check.Report
module Fault = Kite_fault.Fault
module Scenario = Kite.Scenario

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let rule_count report rule = List.length (Report.by_rule report rule)

(* ------------------------------------------------------------------ *)
(* Randomized ring property test                                       *)
(* ------------------------------------------------------------------ *)

(* Interleave frontend pushes/publishes, backend consume/respond and
   notify re-arms under a seeded schedule with the protocol lint
   attached, against a FIFO model.  Deliberate pushes onto a full ring
   must raise Ring_full and be flagged as overflows by the checker --
   and nothing else may be flagged. *)
let ring_property seed =
  let report = Report.create () in
  let c = Check.create ~name:(Printf.sprintf "mq-prop-%d" seed) report in
  let r : (int, int) Ring.t = Ring.create ~order:2 in
  Ring.attach_check r c ~name:"prop";
  let rng = Rng.create seed in
  let next = ref 0 in
  let inflight = Queue.create () in (* pushed, not yet consumed *)
  let consumed = Queue.create () in (* consumed, not yet answered *)
  let expected = Queue.create () in (* answered, not yet taken *)
  let overflows = ref 0 in
  let push () =
    if Ring.free_requests r > 0 then begin
      Ring.push_request r !next;
      Queue.push !next inflight;
      incr next
    end
    else begin
      incr overflows;
      match Ring.push_request r !next with
      | () -> Alcotest.fail "push on a full ring did not raise Ring_full"
      | exception Ring.Ring_full -> ()
    end
  in
  let take_request () =
    match Ring.take_request r with
    | Some v ->
        check_int "requests arrive in push order" (Queue.pop inflight) v;
        Queue.push v consumed
    | None -> ignore (Ring.final_check_for_requests r)
  in
  let respond () =
    match Queue.take_opt consumed with
    | Some v ->
        Ring.push_response r (v * 3);
        Queue.push (v * 3) expected
    | None -> ()
  in
  let take_response () =
    match Ring.take_response r with
    | Some v -> check_int "responses arrive in order" (Queue.pop expected) v
    | None -> ignore (Ring.final_check_for_responses r)
  in
  for _ = 1 to 3000 do
    match Rng.int rng 8 with
    | 0 | 1 -> push ()
    | 2 -> ignore (Ring.push_requests_and_check_notify r)
    | 3 | 4 -> take_request ()
    | 5 -> respond ()
    | 6 -> ignore (Ring.push_responses_and_check_notify r)
    | _ -> take_response ()
  done;
  (* Drain everything still in flight so the model queues empty out. *)
  ignore (Ring.push_requests_and_check_notify r);
  let rounds = ref 0 in
  while
    not
      (Queue.is_empty inflight && Queue.is_empty consumed
      && Queue.is_empty expected)
  do
    incr rounds;
    if !rounds > 10_000 then Alcotest.fail "drain did not converge";
    take_request ();
    respond ();
    ignore (Ring.push_responses_and_check_notify r);
    take_response ()
  done;
  check_bool "schedule exercised Ring_full" true (!overflows > 0);
  check_bool "schedule moved real traffic" true (!next > 200);
  check_int "every full-ring push flagged as overflow, nothing else"
    !overflows (Report.errors report);
  check_int "overflow rule count matches" !overflows
    (rule_count report "ring-overflow")

let test_ring_property () = List.iter ring_property [ 7; 42; 1234; 20260806 ]

(* The tentpole's no-slot-in-two-queues invariant, driven directly. *)
let test_mq_slot_invariant () =
  let report = Report.create () in
  let c = Check.create ~name:"mq-slots" report in
  Check.mq_claim c ~dev:"vif1.0-tx" ~queue:0 ~slot:5;
  Check.mq_release c ~dev:"vif1.0-tx" ~slot:5;
  (* Retired slots may be reused by any queue. *)
  Check.mq_claim c ~dev:"vif1.0-tx" ~queue:1 ~slot:5;
  check_int "claim/release/claim is clean" 0 (Report.errors report);
  (* The same slot id on another device is a different namespace. *)
  Check.mq_claim c ~dev:"vbd0-ring" ~queue:0 ~slot:5;
  check_int "devices are independent" 0 (Report.errors report);
  (* A live slot surfacing on a second queue of the same device is the
     violation. *)
  Check.mq_claim c ~dev:"vif1.0-tx" ~queue:3 ~slot:5;
  check_int "slot in two queues flagged" 1
    (rule_count report "mq-slot-duplicated")

(* ------------------------------------------------------------------ *)
(* Negotiation and fallback                                            *)
(* ------------------------------------------------------------------ *)

let mk_domains hv =
  let dd =
    Hypervisor.create_domain hv ~name:"dd" ~kind:Domain.Driver_domain
      ~vcpus:2 ~mem_mb:512
  in
  let domu =
    Hypervisor.create_domain hv ~name:"u" ~kind:Domain.Dom_u ~vcpus:2
      ~mem_mb:512
  in
  (dd, domu)

let test_net_backend_caps_ask () =
  let hv = Hypervisor.create () in
  let ctx = Kite_drivers.Xen_ctx.create hv in
  let dd, domu = mk_domains hv in
  let nic =
    Kite_devices.Nic.create (Hypervisor.sched hv)
      ~name:"eth0" ()
  in
  let app =
    Kite_drivers.Net_app.run ctx ~domain:dd ~nic
      ~overheads:Kite_drivers.Overheads.kite ~max_queues:2 ()
  in
  Kite_drivers.Toolstack.add_vif ctx ~backend:dd ~frontend:domu ~devid:0
    ~queues:8 ();
  let front =
    Kite_drivers.Netfront.create ctx ~domain:domu ~backend:dd ~devid:0
      ~num_queues:8 ()
  in
  Testbed.run hv ~what:"handshake" ~within:(Time.sec 5) (fun finish ->
      Hypervisor.spawn hv domu ~name:"wait" (fun () ->
          Kite_drivers.Netfront.wait_connected front;
          finish ()));
  check_int "frontend settled on the backend's cap" 2
    (Kite_drivers.Netfront.num_queues front);
  (match Kite_drivers.Netback.instances (Kite_drivers.Net_app.netback app) with
  | [ i ] ->
      check_int "backend runs the capped count" 2
        (Kite_drivers.Netback.num_queues i)
  | l -> Alcotest.failf "expected one instance, got %d" (List.length l));
  let store = Hypervisor.store hv in
  let fp = Xenbus.frontend_path ~frontend:domu ~ty:"vif" ~devid:0 in
  let has p = Xenstore.read store ~path:p <> None in
  check_bool "queue-0 keys written" true
    (has (fp ^ "/" ^ Kite_drivers.Netchannel.queue_key 0 "tx-ring-ref"));
  check_bool "queue-1 keys written" true
    (has (fp ^ "/" ^ Kite_drivers.Netchannel.queue_key 1 "tx-ring-ref"));
  check_bool "no queue beyond the cap" false
    (has (fp ^ "/" ^ Kite_drivers.Netchannel.queue_key 2 "tx-ring-ref"));
  check_bool "no legacy flat ring key in mq mode" false
    (has (fp ^ "/tx-ring-ref"))

let test_blk_backend_caps_ask () =
  let hv = Hypervisor.create () in
  let ctx = Kite_drivers.Xen_ctx.create hv in
  let dd, domu = mk_domains hv in
  let nvme =
    Kite_devices.Nvme.create (Hypervisor.sched hv)
      ~name:"nvme0" ~capacity_sectors:(1 lsl 16) ()
  in
  let app =
    Kite_drivers.Blk_app.run ctx ~domain:dd ~nvme
      ~overheads:Kite_drivers.Overheads.kite ~max_queues:2 ()
  in
  Kite_drivers.Toolstack.add_vbd ctx ~backend:dd ~frontend:domu ~devid:0 ();
  let front =
    Kite_drivers.Blkfront.create ctx ~domain:domu ~backend:dd ~devid:0
      ~num_queues:8 ()
  in
  let ok =
    Testbed.run hv ~what:"round trip" ~within:(Time.sec 10) (fun finish ->
        Hypervisor.spawn hv domu ~name:"io" (fun () ->
            Kite_drivers.Blkfront.wait_connected front;
            let data = Bytes.make 4096 'm' in
            Kite_drivers.Blkfront.write front ~sector:0 data;
            finish
              (Bytes.equal
                 (Kite_drivers.Blkfront.read front ~sector:0 ~count:8)
                 data)))
  in
  check_bool "round trip over capped rings" true ok;
  check_int "frontend settled on the backend's cap" 2
    (Kite_drivers.Blkfront.num_queues front);
  match Kite_drivers.Blkback.instances (Kite_drivers.Blk_app.blkback app) with
  | [ i ] ->
      check_int "backend runs the capped count" 2
        (Kite_drivers.Blkback.num_queues i)
  | l -> Alcotest.failf "expected one instance, got %d" (List.length l)

let test_blk_legacy_frontend_on_mq_backend () =
  (* A frontend that never asks (and a toolstack that never hints) must
     get the seed's flat single-ring layout even though the backend
     advertises multi-queue support. *)
  let hv = Hypervisor.create () in
  let ctx = Kite_drivers.Xen_ctx.create hv in
  let dd, domu = mk_domains hv in
  let nvme =
    Kite_devices.Nvme.create (Hypervisor.sched hv)
      ~name:"nvme0" ~capacity_sectors:(1 lsl 16) ()
  in
  ignore
    (Kite_drivers.Blk_app.run ctx ~domain:dd ~nvme
       ~overheads:Kite_drivers.Overheads.kite ());
  Kite_drivers.Toolstack.add_vbd ctx ~backend:dd ~frontend:domu ~devid:0 ();
  let front =
    Kite_drivers.Blkfront.create ctx ~domain:domu ~backend:dd ~devid:0 ()
  in
  let ok =
    Testbed.run hv ~what:"round trip" ~within:(Time.sec 10) (fun finish ->
        Hypervisor.spawn hv domu ~name:"io" (fun () ->
            Kite_drivers.Blkfront.wait_connected front;
            let data = Bytes.make 4096 'l' in
            Kite_drivers.Blkfront.write front ~sector:8 data;
            finish
              (Bytes.equal
                 (Kite_drivers.Blkfront.read front ~sector:8 ~count:8)
                 data)))
  in
  check_bool "round trip over the legacy ring" true ok;
  check_int "single legacy queue" 1 (Kite_drivers.Blkfront.num_queues front);
  let store = Hypervisor.store hv in
  let fp = Xenbus.frontend_path ~frontend:domu ~ty:"vbd" ~devid:0 in
  let bp = Xenbus.backend_path ~backend:dd ~frontend:domu ~ty:"vbd" ~devid:0 in
  let has p = Xenstore.read store ~path:p <> None in
  check_bool "backend did advertise multi-queue" true
    (has (bp ^ "/" ^ Kite_drivers.Blkif.key_max_queues));
  check_bool "flat ring-ref key used" true (has (fp ^ "/ring-ref"));
  check_bool "no per-queue keys" false
    (has (fp ^ "/" ^ Kite_drivers.Blkif.queue_key 0 "ring-ref"));
  check_bool "no num-queues answer" false
    (has (fp ^ "/" ^ Kite_drivers.Blkif.key_num_queues))

(* ------------------------------------------------------------------ *)
(* Seeded scenario stress sweep                                        *)
(* ------------------------------------------------------------------ *)

(* One randomized storage run: queue count, fault plan and whether the
   driver domain crashes mid-I/O all come from the seed.  The checker is
   the oracle: whatever the schedule, recovery must leave zero protocol
   errors, and the blkfront journal must deliver every write
   exactly once. *)
let stress_blk ~rng ~seed =
  let nq = [| 1; 2; 4; 8 |].(Rng.int rng 4) in
  let crash = Rng.bool rng in
  let plan =
    List.filter
      (fun _ -> Rng.bool rng)
      [
        Fault.spec ~count:1 Fault.Evtchn_notify;
        Fault.spec ~key:"nvme" ~first:2 ~every:3 ~count:2 Fault.Device_io;
        Fault.spec ~key:"vbd" ~count:1 Fault.Ring_slot;
        Fault.spec ~key:"state" ~count:1 Fault.Xenstore_write;
      ]
  in
  let report = Report.create () in
  Kite.Obs.run
    {
      Kite.Obs.none with
      check = Some report;
      fault = Some (Fault.sink ~seed plan);
    }
  @@ fun () ->
  let s = Scenario.storage ~flavor:Scenario.Kite ~num_queues:nq () in
  let restored = ref (not crash) and verify_errors = ref 0 in
  Testbed.run s.Scenario.bhv
    ~what:
      (Printf.sprintf "seed %d: blk workload (nq=%d crash=%b)" seed nq crash)
    ~within:(Time.sec 60) (fun finish ->
      Scenario.when_blk_ready s (fun () ->
          if crash then
            Scenario.crash_and_restart_blk s ~flavor:Scenario.Kite
              ~at:(Time.ms 2)
              ~on_restored:(fun ~downtime:_ -> restored := true)
              ();
          let front = s.Scenario.blkfront in
          let fill k = Char.chr (Char.code 'a' + (k mod 26)) in
          for k = 0 to 5 do
            Kite_drivers.Blkfront.write front ~sector:(k * 8)
              (Bytes.make 4096 (fill k))
          done;
          for k = 0 to 5 do
            Bytes.iter
              (fun ch -> if ch <> fill k then incr verify_errors)
              (Kite_drivers.Blkfront.read front ~sector:(k * 8) ~count:8)
          done;
          (* The I/O may all land before the crash: the run's result is
             the workload and the recovery. *)
          while not !restored do
            Process.sleep (Time.ms 1)
          done;
          finish ()));
  check_int
    (Printf.sprintf "seed %d: exactly-once, zero corrupted bytes" seed)
    0 !verify_errors;
  if crash then
    check_int
      (Printf.sprintf "seed %d: frontend reconnected once" seed)
      1
      (Kite_drivers.Blkfront.reconnects s.Scenario.blkfront);
  check_int
    (Printf.sprintf "seed %d: zero checker errors" seed)
    0 (Report.errors report)

(* One randomized network run, same shape: pings ride out the injected
   faults (and the crash when the seed schedules one). *)
let stress_net ~rng ~seed =
  let nq = [| 1; 2; 4; 8 |].(Rng.int rng 4) in
  let crash = Rng.bool rng in
  let plan =
    List.filter
      (fun _ -> Rng.bool rng)
      [
        Fault.spec ~count:1 Fault.Evtchn_notify;
        Fault.spec ~key:"eth" ~first:3 ~every:5 ~count:2 Fault.Device_io;
        Fault.spec ~key:"state" ~count:1 Fault.Xenstore_write;
      ]
  in
  let report = Report.create () in
  Kite.Obs.run
    {
      Kite.Obs.none with
      check = Some report;
      fault = Some (Fault.sink ~seed plan);
    }
  @@ fun () ->
  let s = Scenario.network ~flavor:Scenario.Kite ~seed ~num_queues:nq () in
  let restored = ref (not crash) and after_ok = ref 0 in
  let connected = ref false in
  Testbed.run s.Scenario.hv
    ~what:
      (Printf.sprintf "seed %d: net workload (nq=%d crash=%b)" seed nq crash)
    ~within:(Time.sec 60) (fun finish ->
      Scenario.when_net_ready s (fun () ->
          if crash then
            Scenario.crash_and_restart_net s ~flavor:Scenario.Kite
              ~at:(Time.ms 5)
              ~on_restored:(fun ~downtime:_ -> restored := true)
              ();
          (* Ping through any outage until the backend is (back) up... *)
          let seq = ref 0 in
          while not !restored do
            incr seq;
            ignore
              (Kite_net.Stack.ping s.Scenario.client_stack
                 ~dst:s.Scenario.guest_ip ~timeout:(Time.ms 20) ~seq:!seq ());
            Process.sleep (Time.ms 5)
          done;
          (* ...then the steady-state path must be loss-free. *)
          for k = 1 to 5 do
            match
              Kite_net.Stack.ping s.Scenario.client_stack
                ~dst:s.Scenario.guest_ip ~timeout:(Time.ms 100)
                ~seq:(!seq + k) ()
            with
            | Some _ -> incr after_ok
            | None -> ()
          done;
          connected := Kite_drivers.Netfront.connected s.Scenario.netfront;
          finish ()));
  check_int
    (Printf.sprintf "seed %d: steady-state pings all answered" seed)
    5 !after_ok;
  check_bool
    (Printf.sprintf "seed %d: netfront connected at end" seed)
    true !connected;
  check_int
    (Printf.sprintf "seed %d: zero checker errors" seed)
    0 (Report.errors report)

let test_scenario_stress () =
  for seed = 1 to 50 do
    let rng = Rng.create (0x51ab + (seed * 7919)) in
    if seed mod 2 = 0 then stress_blk ~rng ~seed else stress_net ~rng ~seed
  done

(* ------------------------------------------------------------------ *)
(* Labelled-metrics dedup                                              *)
(* ------------------------------------------------------------------ *)

(* The per-queue families carry a queue="<n>" label next to the device
   label.  A driver that re-registers after a reconnect may spell the
   label set in another order: it must land in the same instance, and
   every enumeration must list that instance once. *)
let test_labelled_metrics_dedup () =
  let module R = Kite_metrics.Registry in
  let r = R.create ~name:"mq" () in
  let fam = "kite_net_ring_pending" in
  let a = [ ("queue", "0"); ("vif", "vif1.0") ]
  and b = [ ("vif", "vif1.0"); ("queue", "0") ]
  and c = [ ("queue", "1"); ("vif", "vif1.0") ] in
  R.gauge_fn r fam a (fun () -> 1.);
  R.gauge_fn r fam b (fun () -> 2.);
  R.gauge_fn r fam c (fun () -> 5.);
  check_bool "shuffled spelling replaces the closure" true
    (R.value r fam a = Some 2.);
  check_bool "a different label set is a different instance" true
    (R.value r fam c = Some 5.);
  let of_fam rows = List.filter (fun (n, _, _) -> String.equal n fam) rows in
  check_int "read lists each instance once" 2 (List.length (of_fam (R.read r)));
  check_int "families lists the family once" 1
    (List.length (of_fam (R.families r)));
  check_int "exposition lists each instance once" 2
    (List.length (of_fam (R.parse_prometheus (R.to_prometheus [ r ]))))

(* ------------------------------------------------------------------ *)
(* Throughput: mq against the legacy ring, and scaling                 *)
(* ------------------------------------------------------------------ *)

let gbps nq ~mq =
  Kite.Experiments.mq_run_gbps ~duration:(Time.ms 3) ~mq nq

(* The machinery is free when unused: one negotiated queue moves exactly
   the bytes the legacy flat single ring moves, in the same simulated
   time. *)
let test_mq1_equals_legacy () =
  Alcotest.(check (float 0.))
    "1-queue mq Gbps = legacy Gbps" (gbps 1 ~mq:false) (gbps 1 ~mq:true)

let test_mq_scales () =
  let one = gbps 1 ~mq:true and four = gbps 4 ~mq:true in
  if not (four >= 2. *. one) then
    Alcotest.failf "4 queues give %.3f Gbps, under 2x the %.3f of 1 queue"
      four one

(* A backend cap of 0 (multi-queue-max-queues = 0) is no multi-queue
   support at all: a frontend that asks for 2 queues must fall back to
   the legacy flat ring on both pairs, and its I/O must complete. *)
let test_cap_zero_means_legacy () =
  let hv = Hypervisor.create () in
  let ctx = Kite_drivers.Xen_ctx.create hv in
  let dd, domu = mk_domains hv in
  let nvme =
    Kite_devices.Nvme.create (Hypervisor.sched hv)
      ~name:"nvme0" ~capacity_sectors:(1 lsl 16) ()
  in
  let nic =
    Kite_devices.Nic.create (Hypervisor.sched hv)
      ~name:"eth0" ()
  in
  let blk =
    Kite_drivers.Blk_app.run ctx ~domain:dd ~nvme
      ~overheads:Kite_drivers.Overheads.kite ~max_queues:0 ()
  in
  let net =
    Kite_drivers.Net_app.run ctx ~domain:dd ~nic
      ~overheads:Kite_drivers.Overheads.kite ~max_queues:0 ()
  in
  Kite_drivers.Toolstack.add_vbd ctx ~backend:dd ~frontend:domu ~devid:0 ();
  Kite_drivers.Toolstack.add_vif ctx ~backend:dd ~frontend:domu ~devid:0 ();
  let bf =
    Kite_drivers.Blkfront.create ctx ~domain:domu ~backend:dd ~devid:0
      ~num_queues:2 ()
  in
  let nf =
    Kite_drivers.Netfront.create ctx ~domain:domu ~backend:dd ~devid:0
      ~num_queues:2 ()
  in
  let blk_ok =
    Testbed.run hv ~what:"round trips" ~within:(Time.sec 5) (fun finish ->
        Hypervisor.spawn hv domu ~name:"io" (fun () ->
            Kite_drivers.Blkfront.wait_connected bf;
            Kite_drivers.Netfront.wait_connected nf;
            let dev = Kite_drivers.Netfront.netdev nf in
            Kite_net.Netdev.set_up dev true;
            Kite_net.Netdev.transmit dev (Bytes.make 64 'z');
            let data = Bytes.make 4096 'z' in
            Kite_drivers.Blkfront.write bf ~sector:0 data;
            finish
              (Bytes.equal
                 (Kite_drivers.Blkfront.read bf ~sector:0 ~count:8)
                 data)))
  in
  check_bool "blk round trip at cap 0" true blk_ok;
  check_int "blkfront fell back to one ring" 1
    (Kite_drivers.Blkfront.num_queues bf);
  check_int "netfront fell back to one queue" 1
    (Kite_drivers.Netfront.num_queues nf);
  (match Kite_drivers.Blkback.instances (Kite_drivers.Blk_app.blkback blk) with
  | [ i ] ->
      check_int "blkback serves one ring" 1
        (Kite_drivers.Blkback.num_queues i)
  | l -> Alcotest.failf "expected one blkback instance, got %d" (List.length l));
  (match Kite_drivers.Netback.instances (Kite_drivers.Net_app.netback net) with
  | [ i ] ->
      check_int "netback serves one queue" 1
        (Kite_drivers.Netback.num_queues i);
      check_int "the frame went out" 1 (Kite_drivers.Netback.tx_packets i)
  | l -> Alcotest.failf "expected one netback instance, got %d" (List.length l));
  let store = Hypervisor.store hv in
  let has p = Xenstore.read store ~path:p <> None in
  List.iter
    (fun (ty, ring_key) ->
      let fp = Xenbus.frontend_path ~frontend:domu ~ty ~devid:0 in
      check_bool (ty ^ ": flat ring key") true (has (fp ^ "/" ^ ring_key));
      check_bool (ty ^ ": no num-queues answer") false
        (has (fp ^ "/" ^ Kite_drivers.Xenif.Mq.key_num_queues)))
    [ ("vbd", "ring-ref"); ("vif", "tx-ring-ref") ]

let suite =
  [
    ("randomized ring property", `Quick, test_ring_property);
    ("mq slot invariant", `Quick, test_mq_slot_invariant);
    ("net backend caps ask", `Quick, test_net_backend_caps_ask);
    ("blk backend caps ask", `Quick, test_blk_backend_caps_ask);
    ( "blk legacy frontend on mq backend",
      `Quick,
      test_blk_legacy_frontend_on_mq_backend );
    ("scenario stress, 50 seeds", `Slow, test_scenario_stress);
    ("labelled metrics dedup", `Quick, test_labelled_metrics_dedup);
    ("1-queue mq equals legacy ring", `Quick, test_mq1_equals_legacy);
    ("4 queues scale to 2x", `Quick, test_mq_scales);
    ("cap 0 means legacy", `Quick, test_cap_zero_means_legacy);
  ]
