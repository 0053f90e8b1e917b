(* The protocol-invariant checker: each rule fires on a seeded violation
   and stays quiet on the clean end-to-end testbeds. *)

open Kite_sim
open Kite_xen
open Kite_check

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Substring containment, to avoid pinning findings to exact phrasing. *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let fresh () =
  let report = Report.create () in
  (report, Check.create ~name:"test" report)

let rule_count report rule = List.length (Report.by_rule report rule)

(* A grant never revoked surfaces in the end-of-run audit with granter,
   grantee and the leaked refs. *)
let test_grant_leak () =
  let report, c = fresh () in
  Check.grant_granted c ~gref:9 ~granter:1 ~grantee:2;
  Check.grant_granted c ~gref:10 ~granter:1 ~grantee:2;
  Check.finalize c ~pending:0;
  check_int "one grouped finding" 1 (Report.count report);
  check_int "errors" 1 (Report.errors report);
  match Report.by_rule report "grant-leak" with
  | [ f ] ->
      check_bool "names granter" true
        (contains f.Report.message "domain 1");
      check_bool "lists refs" true
        (contains f.Report.message "9,10")
  | fs -> Alcotest.failf "expected 1 grant-leak, got %d" (List.length fs)

(* Drive the real grant table through a double unmap, an end_access while
   mapped, and a use after revoke; the sanitizer reports each even though
   the grant table also rejects them. *)
let test_grant_sanitizer () =
  let report, c = fresh () in
  let hv = Hypervisor.create () in
  let gt = Grant_table.create hv in
  Grant_table.set_check gt (Some c);
  let dd =
    Hypervisor.create_domain hv ~name:"dd" ~kind:Domain.Driver_domain
      ~vcpus:1 ~mem_mb:128
  in
  let du =
    Hypervisor.create_domain hv ~name:"du" ~kind:Domain.Dom_u ~vcpus:1
      ~mem_mb:128
  in
  Hypervisor.spawn hv dd ~name:"abuser" (fun () ->
      let expect_rejected f =
        match f () with
        | () -> Alcotest.fail "grant table accepted a violation"
        | exception Grant_table.Grant_error _ -> ()
      in
      let page = Page.alloc () in
      let gref =
        Grant_table.grant_access gt ~granter:du ~grantee:dd ~page
          ~writable:true
      in
      ignore (Grant_table.map gt ~grantee:dd gref);
      expect_rejected (fun () -> Grant_table.end_access gt ~granter:du gref);
      Grant_table.unmap gt ~grantee:dd gref;
      expect_rejected (fun () -> Grant_table.unmap gt ~grantee:dd gref);
      Grant_table.end_access gt ~granter:du gref;
      expect_rejected (fun () -> ignore (Grant_table.map gt ~grantee:dd gref)));
  Hypervisor.run_for hv (Time.ms 10);
  check_int "end while mapped" 1 (rule_count report "grant-end-while-mapped");
  check_int "double unmap" 1 (rule_count report "grant-double-unmap");
  check_int "use after revoke" 1 (rule_count report "grant-use-after-revoke");
  (* The grant was properly revoked in the end: no leak at finalize. *)
  Check.finalize c ~pending:0;
  check_int "no leak" 0 (rule_count report "grant-leak")

let test_ring_overflow () =
  let report, c = fresh () in
  let r : (int, int) Ring.t = Ring.create ~order:1 in
  Ring.attach_check r c ~name:"t";
  Ring.push_request r 1;
  Ring.push_request r 2;
  (match Ring.push_request r 3 with
  | () -> Alcotest.fail "expected Ring_full"
  | exception Ring.Ring_full -> ());
  check_int "overflow reported" 1 (rule_count report "ring-overflow");
  check_int "errors" 1 (Report.errors report)

(* A consumer that takes from a ring and then blocks without re-arming via
   final_check_for_* is the lost-wakeup bug the notification-suppression
   protocol exists to prevent. *)
let test_lost_wakeup () =
  let report, c = fresh () in
  let engine = Engine.create () in
  let sched = Process.scheduler engine in
  Process.set_check sched (Some c);
  let r : (int, int) Ring.t = Ring.create ~order:2 in
  Ring.attach_check r c ~name:"lw";
  let idle = Condition.create ~label:"more work" () in
  Process.spawn sched ~name:"producer" (fun () ->
      Ring.push_request r 1;
      ignore (Ring.push_requests_and_check_notify r));
  Process.spawn sched ~name:"bad-consumer" (fun () ->
      ignore (Ring.take_request r);
      (* Bug: no final_check_for_requests before blocking. *)
      Condition.wait idle);
  Engine.run engine;
  (match Report.by_rule report "ring-lost-wakeup" with
  | [ f ] ->
      Alcotest.(check string) "provenance" "bad-consumer" f.Report.provenance
  | fs -> Alcotest.failf "expected 1 lost-wakeup, got %d" (List.length fs));
  (* The consumer is still parked on the condition: quiescence names it. *)
  Check.quiescence c ~pending:0;
  match Report.by_rule report "sched-quiescence" with
  | [ f ] ->
      check_bool "names waiter" true
        (contains f.Report.message "bad-consumer (on more work)")
  | fs -> Alcotest.failf "expected 1 quiescence, got %d" (List.length fs)

(* Well-behaved consumer: take, re-arm, then block.  No findings. *)
let test_no_lost_wakeup_when_rearmed () =
  let report, c = fresh () in
  let engine = Engine.create () in
  let sched = Process.scheduler engine in
  Process.set_check sched (Some c);
  let r : (int, int) Ring.t = Ring.create ~order:2 in
  Ring.attach_check r c ~name:"ok";
  let idle = Condition.create ~label:"more work" () in
  Process.spawn sched ~name:"producer" (fun () ->
      Ring.push_request r 1;
      ignore (Ring.push_requests_and_check_notify r));
  Process.spawn sched ~name:"good-consumer" ~daemon:true (fun () ->
      ignore (Ring.take_request r);
      if not (Ring.final_check_for_requests r) then Condition.wait idle);
  Engine.run engine;
  check_int "no lost-wakeup" 0 (rule_count report "ring-lost-wakeup");
  Check.quiescence c ~pending:0;
  check_int "daemons exempt from quiescence" 0
    (rule_count report "sched-quiescence")

(* A process hammering instrumented operations without ever blocking
   trips the monopolization detector once. *)
let test_scheduler_hog () =
  let report = Report.create () in
  let c =
    Check.create ~config:{ Check.max_ops_without_block = 50 } ~name:"test"
      report
  in
  let engine = Engine.create () in
  let sched = Process.scheduler engine in
  Process.set_check sched (Some c);
  let r : (int, int) Ring.t = Ring.create ~order:4 in
  Ring.attach_check r c ~name:"hog";
  Process.spawn sched ~name:"hog" (fun () ->
      for _ = 1 to 30 do
        Ring.push_request r 1;
        ignore (Ring.push_requests_and_check_notify r);
        ignore (Ring.take_request r);
        Ring.push_response r 0;
        ignore (Ring.push_responses_and_check_notify r);
        ignore (Ring.take_response r)
      done);
  Engine.run engine;
  (match Report.by_rule report "sched-hog" with
  | [ f ] -> Alcotest.(check string) "provenance" "hog" f.Report.provenance
  | fs -> Alcotest.failf "expected 1 sched-hog, got %d" (List.length fs));
  (* Same workload with a yield inside the loop stays quiet. *)
  let report2 = Report.create () in
  let c2 =
    Check.create ~config:{ Check.max_ops_without_block = 50 } ~name:"test"
      report2
  in
  let engine2 = Engine.create () in
  let sched2 = Process.scheduler engine2 in
  Process.set_check sched2 (Some c2);
  let r2 : (int, int) Ring.t = Ring.create ~order:4 in
  Ring.attach_check r2 c2 ~name:"polite";
  Process.spawn sched2 ~name:"polite" (fun () ->
      for _ = 1 to 30 do
        Ring.push_request r2 1;
        ignore (Ring.push_requests_and_check_notify r2);
        ignore (Ring.take_request r2);
        Ring.push_response r2 0;
        ignore (Ring.push_responses_and_check_notify r2);
        ignore (Ring.take_response r2);
        Process.yield ()
      done);
  Engine.run engine2;
  check_int "yielding loop is fine" 0 (rule_count report2 "sched-hog")

let test_xenstore_lint () =
  let report, c = fresh () in
  let xs = Xenstore.create () in
  Xenstore.set_check xs (Some c);
  Xenstore.write xs ~domid:0 ~path:"/local/domain/5" "";
  Xenstore.set_owner xs ~path:"/local/domain/5" ~domid:5;
  (* Denied write: domain 5 outside its subtree. *)
  (try Xenstore.write xs ~domid:5 ~path:"/local/domain/0/foo" "x"
   with Xenstore.Permission_denied _ -> ());
  (* One watch removed, one orphaned. *)
  let w1 = Xenstore.watch xs ~path:"/a" ~token:"t1" (fun ~path:_ ~token:_ -> ()) in
  ignore
    (Xenstore.watch xs ~path:"/local/domain/5" ~token:"t2"
       (fun ~path:_ ~token:_ -> ()));
  Xenstore.unwatch xs w1;
  (* One transaction committed, one aborted, one left open. *)
  let tx1 = Xenstore.tx_start xs in
  Xenstore.tx_write tx1 ~domid:0 ~path:"/b" "1";
  (match Xenstore.tx_commit tx1 with
  | `Committed -> ()
  | `Conflict -> Alcotest.fail "unexpected conflict");
  let tx2 = Xenstore.tx_start xs in
  Xenstore.tx_abort tx2;
  let _tx3 = Xenstore.tx_start xs in
  Check.finalize c ~pending:0;
  check_int "denied write" 1 (rule_count report "xs-write-denied");
  (match Report.by_rule report "xs-orphan-watch" with
  | [ f ] ->
      check_bool "names token" true
        (contains f.Report.message "t2")
  | fs -> Alcotest.failf "expected 1 orphan watch, got %d" (List.length fs));
  check_int "open tx" 1 (rule_count report "xs-open-tx");
  check_int "no errors (all warnings/info)" 0 (Report.errors report)

let test_report_json () =
  let report, c = fresh () in
  Check.write_denied c ~domid:3 ~path:"/x \"quoted\"";
  let json = Report.to_json report in
  check_bool "escapes quotes" true
    (contains json "\\\"quoted\\\"");
  check_bool "has severity" true
    (contains json "\"severity\":\"info\"")

(* End-to-end: the network testbed under load, then orderly teardown.
   The checker must stay quiet — this is what `kite_ctl check` automates
   and what guards the drivers against leak regressions. *)
let checked report f =
  Kite.Obs.run { Kite.Obs.none with check = Some report } f

let test_clean_network_scenario () =
  let report = Report.create () in
  checked report @@ fun () ->
  let s = Kite.Scenario.network ~flavor:Kite.Scenario.Kite () in
  Testbed.run s.Kite.Scenario.hv ~what:"network load" ~within:(Time.sec 2)
    (fun finish ->
      Kite.Scenario.when_net_ready s (fun () ->
          ignore
            (Kite_net.Stack.ping s.Kite.Scenario.client_stack
               ~dst:s.Kite.Scenario.guest_ip ~seq:1 ());
          let sock =
            Kite_net.Stack.udp_bind s.Kite.Scenario.client_stack ~port:40000
          in
          Kite_net.Stack.udp_send s.Kite.Scenario.client_stack sock
            ~dst:s.Kite.Scenario.guest_ip ~dst_port:9
            (Bytes.of_string "probe");
          finish ()));
  (* The run's 1 s teardown drain delivers the probe before the audit. *)
  check_int "no grant leaks" 0 (rule_count report "grant-leak");
  check_int "no orphan watches" 0 (rule_count report "xs-orphan-watch");
  check_int "no errors" 0 (Report.errors report)

let test_clean_storage_scenario () =
  let report = Report.create () in
  checked report @@ fun () ->
  let b = Kite.Scenario.storage ~flavor:Kite.Scenario.Kite () in
  Testbed.run b.Kite.Scenario.bhv ~what:"storage load" ~within:(Time.sec 2)
    (fun finish ->
      Kite.Scenario.when_blk_ready b (fun () ->
          let bf = b.Kite.Scenario.blkfront in
          let data = Bytes.make 4096 'k' in
          Kite_drivers.Blkfront.write bf ~sector:0 data;
          let back = Kite_drivers.Blkfront.read bf ~sector:0 ~count:8 in
          Alcotest.(check bytes) "read back" data back;
          Kite_drivers.Blkfront.flush bf;
          finish ()));
  check_int "no grant leaks (persistent pool swept)" 0
    (rule_count report "grant-leak");
  check_int "no orphan watches" 0 (rule_count report "xs-orphan-watch");
  check_int "no errors" 0 (Report.errors report)

(* A timer its wake-up cancelled must not hide a deadlock: the process
   leaves a 1 s timed_wait on a signal, then parks forever on a second
   condition.  The cancelled timer has left the event queue, so nothing
   is pending and quiescence names the process. *)
let test_quiescence_after_cancelled_timer () =
  let report, c = fresh () in
  let engine = Engine.create () in
  let sched = Process.scheduler engine in
  Process.set_check sched (Some c);
  let ready = Condition.create ~label:"ready" () in
  let never = Condition.create ~label:"never" () in
  let woke = ref `Timeout in
  Process.spawn sched ~name:"waiter" (fun () ->
      woke := Condition.timed_wait ready (Time.sec 1);
      Condition.wait never);
  Process.spawn sched ~name:"signaller" (fun () ->
      Process.sleep (Time.ms 1);
      Condition.signal ready);
  Engine.run_until engine (Time.ms 10);
  check_bool "signalled out of the timed wait" true (!woke = `Signaled);
  check_int "no live event pending" 0 (Engine.pending engine);
  Check.quiescence c ~pending:(Engine.pending engine);
  match Report.by_rule report "sched-quiescence" with
  | [ f ] ->
      check_bool "names waiter" true
        (contains f.Report.message "waiter (on never)")
  | fs -> Alcotest.failf "expected 1 quiescence, got %d" (List.length fs)

let suite =
  [
    ("grant leak audit", `Quick, test_grant_leak);
    ("grant sanitizer", `Quick, test_grant_sanitizer);
    ("ring overflow", `Quick, test_ring_overflow);
    ("ring lost wakeup", `Quick, test_lost_wakeup);
    ("ring rearmed consumer ok", `Quick, test_no_lost_wakeup_when_rearmed);
    ("scheduler hog", `Quick, test_scheduler_hog);
    ("xenstore lint", `Quick, test_xenstore_lint);
    ("report json escaping", `Quick, test_report_json);
    ("clean network scenario", `Quick, test_clean_network_scenario);
    ("clean storage scenario", `Quick, test_clean_storage_scenario);
    ("quiescence after a cancelled timer", `Quick,
     test_quiescence_after_cancelled_timer);
  ]
