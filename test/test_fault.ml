(* Tests for the seeded fault-injection layer (Kite_fault) and the
   end-to-end crash/restart recovery paths built on it: exactly-once
   block replay, network resume, retry/backoff on transient device
   errors, and determinism of the whole recovery sequence. *)

open Kite_sim
open Kite
module Fault = Kite_fault.Fault

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Plans                                                               *)
(* ------------------------------------------------------------------ *)

let test_plan_roundtrip () =
  let plan =
    [
      Fault.spec ~key:"nvme" ~first:10 ~every:40 ~count:8 Fault.Device_io;
      Fault.spec ~key:"vbd" ~first:2 Fault.Ring_slot;
      Fault.spec ~prob:0.25 Fault.Evtchn_notify;
      Fault.spec Fault.Xenstore_write;
      Fault.spec ~key:"/local" ~count:1 Fault.Xenstore_watch;
    ]
  in
  match Fault.plan_of_string (Fault.plan_to_string plan) with
  | Ok p -> check_bool "plan round-trips through text" true (p = plan)
  | Error e -> Alcotest.fail e

let test_plan_parse_forgiving () =
  let text =
    "# transient device errors\n\n\
    \  device-io key=nvme first=3 every=2   # inline comment\n\
     ring-slot\n"
  in
  match Fault.plan_of_string text with
  | Ok [ a; b ] ->
      check_bool "point" true (a.Fault.sp_point = Fault.Device_io);
      Alcotest.(check string) "key" "nvme" a.Fault.sp_key;
      check_int "first" 3 a.Fault.sp_first;
      check_int "every" 2 a.Fault.sp_every;
      check_bool "second spec" true (b.Fault.sp_point = Fault.Ring_slot)
  | Ok _ -> Alcotest.fail "expected exactly two specs"
  | Error e -> Alcotest.fail e

let test_plan_parse_errors () =
  check_bool "unknown point" true
    (Result.is_error (Fault.plan_of_string "frobnicate"));
  check_bool "bad integer" true
    (Result.is_error (Fault.plan_of_string "device-io first=x"));
  check_bool "unknown field" true
    (Result.is_error (Fault.plan_of_string "device-io bogus=1"))

let test_point_names () =
  List.iter
    (fun p ->
      check_bool (Fault.point_name p) true
        (Fault.point_of_name (Fault.point_name p) = Some p))
    Fault.
      [ Evtchn_notify; Xenstore_write; Xenstore_watch; Ring_slot; Device_io ];
  check_bool "junk name" true (Fault.point_of_name "junk" = None)

(* ------------------------------------------------------------------ *)
(* Injectors                                                           *)
(* ------------------------------------------------------------------ *)

let test_fire_schedule () =
  let f =
    Fault.create ~seed:1
      [ Fault.spec ~key:"nvme" ~first:3 ~every:2 ~count:2 Fault.Device_io ]
  in
  let fired =
    List.init 8 (fun _ -> Fault.fire f Fault.Device_io ~key:"nvme0")
  in
  check_bool "injects at eligible ops 3 and 5 only" true
    (fired = [ false; false; true; false; true; false; false; false ]);
  check_int "injected count" 2 (Fault.injected_count f);
  check_bool "non-matching key is not eligible" false
    (Fault.fire f Fault.Device_io ~key:"nic0");
  check_bool "other point is not eligible" false
    (Fault.fire f Fault.Ring_slot ~key:"nvme0")

let test_fire_deterministic () =
  let plan =
    [
      (* count=0 disables the deterministic schedule: injections come
         only from the seeded probabilistic draw. *)
      Fault.spec ~count:0 ~prob:0.3 Fault.Evtchn_notify;
      Fault.spec ~first:5 ~every:7 Fault.Device_io;
    ]
  in
  let run () =
    let f = Fault.create ~seed:99 plan in
    for i = 1 to 200 do
      ignore (Fault.fire f Fault.Evtchn_notify ~key:(string_of_int (i mod 4)));
      ignore (Fault.fire f Fault.Device_io ~key:"nvme0")
    done;
    Fault.events f
  in
  let a = run () and b = run () in
  check_bool "same seed + plan => identical event log" true (a = b);
  check_bool "something was injected" true (a <> [])

let test_sink_streams () =
  let run () =
    let s =
      Fault.sink ~seed:4 [ Fault.spec ~count:0 ~prob:0.5 Fault.Device_io ]
    in
    let a = Fault.create_in s ~name:"a" in
    let b = Fault.create_in s ~name:"b" in
    for _ = 1 to 50 do
      ignore (Fault.fire a Fault.Device_io ~key:"x");
      ignore (Fault.fire b Fault.Device_io ~key:"x")
    done;
    (Fault.events a, Fault.events b)
  in
  let a1, b1 = run () in
  let a2, b2 = run () in
  check_bool "per-injector streams reproduce run-to-run" true
    (a1 = a2 && b1 = b2);
  check_bool "split streams differ from each other" true (a1 <> b1)

let test_note_log_order () =
  let f = Fault.create ~seed:1 [ Fault.spec Fault.Device_io ] in
  ignore (Fault.fire f Fault.Device_io ~key:"nvme0");
  Fault.note f ~what:"crash" ~key:"dd";
  ignore (Fault.fire f Fault.Device_io ~key:"nvme0");
  Alcotest.(check (list string))
    "merged ordered log"
    [
      "inject device-io nvme0 #1"; "note crash dd"; "inject device-io nvme0 #2";
    ]
    (Fault.events f);
  check_int "notes" 1 (List.length (Fault.notes f));
  check_int "injections" 2 (List.length (Fault.injected f))

(* ------------------------------------------------------------------ *)
(* Injection + recovery through the scenarios                          *)
(* ------------------------------------------------------------------ *)

(* Build a testbed with a fault sink armed (the same way [kite_ctl
   faults] does); later tests build clean machines. *)
let with_sink ?(seed = 7) plan build =
  let sink = Fault.sink ~seed plan in
  (sink, Obs.run { (Obs.current ()) with fault = Some sink } build)

let test_xenstore_loss_rides_out () =
  (* Lose the first handshake state write and one watch delivery:
     switch_state's read-back/retry and wait_for_state's re-poll must
     still bring the device up. *)
  let sink, s =
    with_sink
      [
        Fault.spec ~key:"state" ~count:1 Fault.Xenstore_write;
        Fault.spec ~count:1 Fault.Xenstore_watch;
      ]
      (fun () -> Scenario.storage ~flavor:Scenario.Kite ())
  in
  Testbed.run s.Scenario.bhv ~what:"handshake despite xenstore loss"
    ~within:(Time.sec 60) (Scenario.when_blk_ready s);
  check_bool "both losses were injected" true
    (List.exists (fun f -> Fault.injected_count f >= 2) (Fault.faults sink))

let test_evtchn_drop_recovered () =
  (* Drop the first ring notification: the frontend watchdog re-kicks
     and the request still completes, exactly once. *)
  let sink, s =
    with_sink
      [ Fault.spec ~count:1 Fault.Evtchn_notify ]
      (fun () -> Scenario.storage ~flavor:Scenario.Kite ())
  in
  let ok =
    Testbed.run s.Scenario.bhv ~what:"round trip" ~within:(Time.sec 60)
      (fun finish ->
        Scenario.when_blk_ready s (fun () ->
            let dev = Scenario.blockdev s in
            let data = Bytes.make 4096 'q' in
            dev.Kite_vfs.Blockdev.write ~sector:8 data;
            finish
              (Bytes.equal
                 (dev.Kite_vfs.Blockdev.read ~sector:8 ~count:8)
                 data)))
  in
  check_bool "round trip intact" true ok;
  check_int "exactly one notification dropped" 1
    (List.fold_left (fun n f -> n + Fault.injected_count f) 0
       (Fault.faults sink))

let test_ring_slot_corruption_reissued () =
  (* Corrupt the first request slot: the backend discards it and the
     frontend watchdog reissues the journalled request. *)
  let sink, s =
    with_sink
      [ Fault.spec ~key:"vbd" ~count:1 Fault.Ring_slot ]
      (fun () -> Scenario.storage ~flavor:Scenario.Kite ())
  in
  let ok =
    Testbed.run s.Scenario.bhv ~what:"round trip" ~within:(Time.sec 60)
      (fun finish ->
        Scenario.when_blk_ready s (fun () ->
            let dev = Scenario.blockdev s in
            let data = Bytes.make 4096 'r' in
            dev.Kite_vfs.Blockdev.write ~sector:16 data;
            finish
              (Bytes.equal
                 (dev.Kite_vfs.Blockdev.read ~sector:16 ~count:8)
                 data)))
  in
  check_bool "round trip intact" true ok;
  check_bool "slot was corrupted" true
    (List.exists (fun f -> Fault.injected_count f > 0) (Fault.faults sink));
  check_bool "frontend reissued the discarded request" true
    (Kite_drivers.Blkfront.resubmits s.Scenario.blkfront >= 1)

let test_nvme_transient_retry () =
  (* Periodic transient NVMe errors: blkback's retry/backoff absorbs
     them and every round trip stays intact. *)
  let sink, s =
    with_sink
      [ Fault.spec ~key:"nvme" ~first:2 ~every:3 ~count:4 Fault.Device_io ]
      (fun () -> Scenario.storage ~flavor:Scenario.Kite ())
  in
  let ok = ref 0 in
  Testbed.run s.Scenario.bhv ~what:"workload" ~within:(Time.sec 60)
    (fun finish ->
      Scenario.when_blk_ready s (fun () ->
          let dev = Scenario.blockdev s in
          for k = 0 to 19 do
            let data = Bytes.make 4096 (Char.chr (Char.code 'a' + k)) in
            dev.Kite_vfs.Blockdev.write ~sector:(k * 8) data;
            if
              Bytes.equal
                (dev.Kite_vfs.Blockdev.read ~sector:(k * 8) ~count:8)
                data
            then incr ok
          done;
          finish ()));
  check_int "all round trips intact" 20 !ok;
  check_bool "errors were injected" true
    (List.exists (fun f -> Fault.injected_count f > 0) (Fault.faults sink));
  check_bool "backend retried" true
    (List.exists
       (fun i -> Kite_drivers.Blkback.io_retries i > 0)
       (Kite_drivers.Blkback.instances
          (Kite_drivers.Blk_app.blkback s.Scenario.blk_app)))

let test_nic_transient_retry () =
  (* Transient NIC transmit failures: netback's retry/backoff keeps the
     ping stream loss-free. *)
  let sink, s =
    with_sink
      [ Fault.spec ~key:"eth" ~first:3 ~every:5 ~count:3 Fault.Device_io ]
      (fun () -> Scenario.network ~flavor:Scenario.Kite ())
  in
  let received = ref 0 in
  Testbed.run s.Scenario.hv ~what:"workload" ~within:(Time.sec 60)
    (fun finish ->
      Scenario.when_net_ready s (fun () ->
          for seq = 1 to 10 do
            match
              Kite_net.Stack.ping s.Scenario.client_stack
                ~dst:s.Scenario.guest_ip ~timeout:(Time.ms 100) ~seq ()
            with
            | Some _ -> incr received
            | None -> ()
          done;
          finish ()));
  check_int "no ping lost to transient tx errors" 10 !received;
  check_bool "errors were injected" true
    (List.exists (fun f -> Fault.injected_count f > 0) (Fault.faults sink));
  check_bool "netback retried" true
    (List.exists
       (fun i -> Kite_drivers.Netback.io_retries i > 0)
       (Kite_drivers.Netback.instances
          (Kite_drivers.Net_app.netback s.Scenario.net_app)))

(* ------------------------------------------------------------------ *)
(* Crash/restart recovery                                              *)
(* ------------------------------------------------------------------ *)

let blk_crash_workload s =
  (* Back-to-back writes so the crash lands on a non-empty journal, then
     a full read-back verify: exactly-once or bust.  The frontend's
     recovery is read at the result, before the run's teardown. *)
  let writes = 48 and span = 64 in
  let downtime = ref None in
  let verify_errors, front =
    Testbed.run s.Scenario.bhv ~what:"workload across the crash"
      ~within:(Time.sec 60) (fun finish ->
        Scenario.when_blk_ready s (fun () ->
            Scenario.crash_and_restart_blk s ~flavor:Scenario.Kite
              ~at:(Time.ms 2)
              ~on_restored:(fun ~downtime:d -> downtime := Some d)
              ();
            let front = s.Scenario.blkfront in
            let fill k = Char.chr (Char.code 'a' + (k mod 26)) in
            for k = 0 to writes - 1 do
              Kite_drivers.Blkfront.write front ~sector:(k * span)
                (Bytes.make (span * Kite_drivers.Blkfront.sector_size) (fill k))
            done;
            let errors = ref 0 in
            for k = 0 to writes - 1 do
              Bytes.iter
                (fun c -> if c <> fill k then incr errors)
                (Kite_drivers.Blkfront.read front ~sector:(k * span)
                   ~count:span)
            done;
            (* The restore callback polls the frontend every 1 ms, so
               it may report after the last read completed. *)
            while !downtime = None do
              Process.sleep (Time.ms 1)
            done;
            finish
              ( !errors,
                Kite_drivers.Blkfront.
                  (reconnects front, replayed front, is_connected front) )))
  in
  (!downtime, verify_errors, front)

let test_blk_crash_exactly_once () =
  let s = Scenario.storage ~flavor:Scenario.Kite () in
  let downtime, verify_errors, (reconnects, replayed, connected) =
    blk_crash_workload s
  in
  check_bool "downtime measured" true (downtime <> None);
  check_bool "downtime positive" true
    (match downtime with Some d -> d > 0 | None -> false);
  check_int "frontend reconnected once" 1 reconnects;
  check_bool "journal replayed in-flight requests" true (replayed >= 1);
  check_bool "frontend connected again" true connected;
  check_int "exactly-once: zero lost or corrupted bytes" 0 verify_errors

let test_net_crash_resumes () =
  let s = Scenario.network ~flavor:Scenario.Kite () in
  let downtime = ref None and after_ok = ref 0 and front = ref (0, false) in
  Testbed.run s.Scenario.hv ~what:"workload across the crash"
    ~within:(Time.sec 60) (fun finish ->
      Scenario.when_net_ready s (fun () ->
          Scenario.crash_and_restart_net s ~flavor:Scenario.Kite
            ~at:(Time.ms 10)
            ~on_restored:(fun ~downtime:d -> downtime := Some d)
            ();
          (* Ping through the outage until the backend is back... *)
          let rec until_restored seq =
            if !downtime = None then begin
              ignore
                (Kite_net.Stack.ping s.Scenario.client_stack
                   ~dst:s.Scenario.guest_ip ~timeout:(Time.ms 20) ~seq ());
              Process.sleep (Time.ms 5);
              until_restored (seq + 1)
            end
            else seq
          in
          let seq = until_restored 0 in
          (* ...then confirm the resumed data path. *)
          for k = 0 to 9 do
            match
              Kite_net.Stack.ping s.Scenario.client_stack
                ~dst:s.Scenario.guest_ip ~timeout:(Time.ms 100) ~seq:(seq + k)
                ()
            with
            | Some _ -> incr after_ok
            | None -> ()
          done;
          let nf = s.Scenario.netfront in
          front := Kite_drivers.Netfront.(reconnects nf, connected nf);
          finish ()));
  check_bool "downtime measured" true (!downtime <> None);
  check_int "netfront reconnected once" 1 (fst !front);
  check_bool "netfront connected again" true (snd !front);
  check_int "all post-restart pings answered" 10 !after_ok

let test_recovery_deterministic () =
  (* The acceptance bar for the whole layer: the same seed and plan must
     produce the identical injection/recovery sequence — asserted on the
     merged fault event logs and on the request-lifecycle trace spans. *)
  let run () =
    let tsink = Kite_trace.Trace.sink ~record:true () in
    let fsink, s =
      Obs.run { Obs.none with trace = Some tsink } (fun () ->
          with_sink ~seed:11 Fault.default_plan (fun () ->
              Scenario.storage ~flavor:Scenario.Kite ()))
    in
    let _downtime, verify_errors, _ = blk_crash_workload s in
    check_int "run verified clean" 0 verify_errors;
    (* Injector names carry a global scenario sequence number that
       differs between runs; the event logs are what must reproduce. *)
    let fault_log = List.concat_map Fault.events (Fault.faults fsink) in
    let spans =
      List.concat_map
        (fun tr ->
          List.map
            (fun sp ->
              let open Kite_trace.Trace in
              ( sp.span_kind, sp.span_key, sp.span_id, sp.span_begin_at,
                sp.span_end_at ))
            (Kite_trace.Trace.spans tr))
        (Kite_trace.Trace.traces tsink)
    in
    (fault_log, spans)
  in
  let f1, s1 = run () in
  let f2, s2 = run () in
  check_bool "recovery notes were logged" true
    (List.exists (fun e -> String.length e >= 4 && String.sub e 0 4 = "note") f1);
  check_bool "spans were recorded" true (s1 <> []);
  check_bool "fault logs identical across runs" true (f1 = f2);
  check_bool "trace spans identical across runs" true (s1 = s2)

let suite =
  [
    ("plan round-trip", `Quick, test_plan_roundtrip);
    ("plan parsing is forgiving", `Quick, test_plan_parse_forgiving);
    ("plan parse errors", `Quick, test_plan_parse_errors);
    ("point names", `Quick, test_point_names);
    ("fire schedule (first/every/count/key)", `Quick, test_fire_schedule);
    ("fire is deterministic", `Quick, test_fire_deterministic);
    ("sink splits reproducible streams", `Quick, test_sink_streams);
    ("notes merge into the event log", `Quick, test_note_log_order);
    ("xenstore loss rides out", `Quick, test_xenstore_loss_rides_out);
    ("evtchn drop recovered by watchdog", `Quick, test_evtchn_drop_recovered);
    ("ring corruption reissued", `Quick, test_ring_slot_corruption_reissued);
    ("nvme transient errors retried", `Quick, test_nvme_transient_retry);
    ("nic transient errors retried", `Quick, test_nic_transient_retry);
    ("blk crash/restart is exactly-once", `Quick, test_blk_crash_exactly_once);
    ("net crash/restart resumes", `Quick, test_net_crash_resumes);
    ("recovery is deterministic", `Slow, test_recovery_deterministic);
  ]
