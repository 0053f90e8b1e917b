(* Happens-before race detector: injected-violation fixtures (each
   finding must name both access sites), HB-edge soundness of the sim's
   synchronization primitives under the seeded schedule explorer, the
   source lint, and a schedule-seed sweep of the full driver stack with
   the detector and the protocol checker as co-oracles. *)

open Kite_sim
module Race = Kite_race.Race
module Check = Kite_check.Check
module Report = Kite_check.Report
module Fault = Kite_fault.Fault
module Scenario = Kite.Scenario

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let finding_mentions report rule needles =
  List.exists
    (fun (f : Report.finding) ->
      List.for_all (contains f.Report.message) needles)
    (Report.by_rule report rule)

(* One detector wired into a fresh engine+scheduler; the body spawns
   processes, then the sim runs to quiescence. *)
let run_fixture ?schedule_seed body =
  let report = Report.create () in
  let d = Race.create ~name:"fixture" report in
  let e = Engine.create ?schedule_seed () in
  let s = Process.scheduler e in
  Process.set_race s (Some d);
  body e s;
  Engine.run e;
  Process.set_race s None;
  report

(* ------------------------------------------------------------------ *)
(* Injected violations: the detector must find them and name both      *)
(* access sites                                                        *)
(* ------------------------------------------------------------------ *)

(* The classic lost update: A reads the shared counter, blocks, and
   writes back the stale value after B has modified it. *)
let test_injected_lost_update () =
  let ctr = ref 0 in
  let report =
    run_fixture (fun _ s ->
        Process.spawn s ~name:"A" (fun () ->
            Race.scoped_read ~loc:"fixture:ctr" ~site:"A.load" ();
            let v = !ctr in
            Process.sleep (Time.ms 2);
            Race.scoped_write ~loc:"fixture:ctr" ~site:"A.store";
            ctr := v + 1);
        Process.spawn s ~name:"B" (fun () ->
            Process.sleep (Time.ms 1);
            Race.scoped_write ~loc:"fixture:ctr" ~site:"B.store";
            ctr := !ctr + 10))
  in
  check_bool "a lost update is reported" true
    (Report.by_rule report "race-lost-update" <> []);
  check_bool "the finding names both access sites" true
    (finding_mentions report "race-lost-update" [ "A.load"; "A.store" ]);
  check_bool "the interfering writer is named" true
    (finding_mentions report "race-lost-update" [ "B.store" ])

(* Same read-block-write shape with nobody interfering this run: still
   an atomicity violation (warning), because another schedule could
   interleave a writer. *)
let test_injected_atomicity () =
  let report =
    run_fixture (fun _ s ->
        Process.spawn s ~name:"A" (fun () ->
            Race.scoped_read ~loc:"fixture:state" ~site:"A.check" ();
            Process.sleep (Time.ms 1);
            Race.scoped_write ~loc:"fixture:state" ~site:"A.commit"))
  in
  check_int "no errors" 0 (Report.errors report);
  check_bool "atomicity violation reported" true
    (Report.by_rule report "race-atomicity" <> []);
  check_bool "both sites named" true
    (finding_mentions report "race-atomicity" [ "A.check"; "A.commit" ])

(* Two writers with no happens-before path at all. *)
let test_injected_unordered () =
  let report =
    run_fixture (fun _ s ->
        Process.spawn s ~name:"W1" (fun () ->
            Race.scoped_write ~loc:"fixture:slot" ~site:"W1.put");
        Process.spawn s ~name:"W2" (fun () ->
            Process.sleep (Time.ms 1);
            Race.scoped_write ~loc:"fixture:slot" ~site:"W2.put"))
  in
  check_bool "unordered writes reported" true
    (Report.by_rule report "race-unordered" <> []);
  check_bool "both sites named" true
    (finding_mentions report "race-unordered" [ "W1.put"; "W2.put" ])

(* ------------------------------------------------------------------ *)
(* HB edges: synchronized code is clean, dropped signals are not edges *)
(* ------------------------------------------------------------------ *)

(* Mailbox send→recv orders the receiver after the sender — including
   when the sender has already exited by the time the message is
   received. *)
let test_mailbox_edge_dead_sender () =
  for seed = 1 to 5 do
    let mb = Mailbox.create ~label:"mb" () in
    let report =
      run_fixture ~schedule_seed:seed (fun _ s ->
          Process.spawn s ~name:"sender" (fun () ->
              Race.scoped_write ~loc:"fixture:box" ~site:"sender.fill";
              Mailbox.send mb ());
          Process.spawn s ~name:"receiver" (fun () ->
              Process.sleep (Time.ms 5);
              Mailbox.recv mb;
              Race.scoped_write ~loc:"fixture:box" ~site:"receiver.drain"))
    in
    check_int
      (Printf.sprintf "seed %d: recv from dead sender is an edge" seed)
      0 (Report.count report)
  done

(* A broadcast wakes every waiter (double wake): each acquires the
   signaller's clock, so their reads of the published value are clean. *)
let test_condition_double_wake () =
  for seed = 1 to 5 do
    let c = Condition.create ~label:"cond" () in
    let report =
      run_fixture ~schedule_seed:seed (fun _ s ->
          for w = 1 to 2 do
            Process.spawn s
              ~name:(Printf.sprintf "waiter%d" w)
              (fun () ->
                Condition.wait c;
                Race.scoped_read ~loc:"fixture:published"
                  ~site:"waiter.consume" ())
          done;
          Process.spawn s ~name:"publisher" (fun () ->
              Process.sleep (Time.ms 1);
              Race.scoped_write ~loc:"fixture:published"
                ~site:"publisher.produce";
              Condition.broadcast c))
    in
    check_int
      (Printf.sprintf "seed %d: broadcast orders both waiters" seed)
      0 (Report.count report)
  done

(* A signal with no waiter is dropped — it must NOT smuggle an edge to a
   process that never actually waited. *)
let test_condition_signal_before_wait () =
  for seed = 1 to 5 do
    let c = Condition.create ~label:"cond" () in
    let report =
      run_fixture ~schedule_seed:seed (fun _ s ->
          Process.spawn s ~name:"early" (fun () ->
              Race.scoped_write ~loc:"fixture:flag" ~site:"early.set";
              Condition.signal c);
          Process.spawn s ~name:"late" (fun () ->
              Process.sleep (Time.ms 2);
              (* Never waits: the dropped signal is not an edge. *)
              Race.scoped_write ~loc:"fixture:flag" ~site:"late.set"))
    in
    check_bool
      (Printf.sprintf "seed %d: dropped signal is not an edge" seed)
      true
      (Report.by_rule report "race-unordered" <> [])
  done

(* Exited processes release an "@exit" edge that quiesce points may
   claim; a teardown that joins it is ordered after everything the dead
   process did. *)
let test_quiesce_edge () =
  let report =
    run_fixture (fun _ s ->
        Process.spawn s ~name:"worker" (fun () ->
            Race.scoped_write ~loc:"fixture:resource" ~site:"worker.use");
        Process.spawn s ~name:"teardown" (fun () ->
            Process.sleep (Time.ms 5);
            Race.scoped_quiesce ();
            Race.scoped_write ~loc:"fixture:resource" ~site:"teardown.free"))
  in
  check_int "quiesce orders teardown after the dead worker" 0
    (Report.count report)

(* Pid slots are reused (FastTrack style): a process spawned after
   another has exited takes its slot, so the old holder's accesses stay
   ordered before the new holder's.  With [concurrent], a third process
   with no edge to either writes the same location last. *)
let reuse_findings ~concurrent =
  let report =
    run_fixture (fun e s ->
        Process.spawn s ~name:"A" (fun () ->
            Race.scoped_write ~loc:"fixture:reused" ~site:"A.put");
        if concurrent then
          Process.spawn s ~name:"C" (fun () ->
              Process.sleep (Time.ms 10);
              Race.scoped_write ~loc:"fixture:reused" ~site:"C.put");
        ignore
          (Engine.schedule_at e (Time.ms 5) (fun () ->
               Process.spawn s ~name:"B" (fun () ->
                   Race.scoped_write ~loc:"fixture:reused" ~site:"B.put"))))
  in
  (* Each finding's provenance and the first line of its message (the
     stacks follow). *)
  List.map
    (fun (f : Report.finding) ->
      ( f.Report.provenance,
        List.hd (String.split_on_char '\n' f.Report.message) ))
    (Report.by_rule report "race-unordered"),
  Report.count report

let test_pid_slot_reuse () =
  let findings, count = reuse_findings ~concurrent:false in
  Alcotest.(check (list (pair string string)))
    "the later process is ordered after the exited one" [] findings;
  check_int "no finding at all" 0 count;
  let findings, count = reuse_findings ~concurrent:true in
  Alcotest.(check (list (pair string string)))
    "the concurrent writer races the slot's new holder, not the old"
    [
      ( "C",
        "unordered accesses to fixture:reused: write by B at B.put is \
         concurrent with write by C at C.put" );
    ]
    findings;
  check_int "one finding" 1 count

(* ------------------------------------------------------------------ *)
(* Schedule explorer                                                   *)
(* ------------------------------------------------------------------ *)

(* The same seed must reproduce the same interleaving exactly; the
   unseeded engine keeps the documented FIFO tie-break. *)
let explore_order ?schedule_seed () =
  let log = ref [] in
  let e = Engine.create ?schedule_seed () in
  let s = Process.scheduler e in
  for i = 1 to 6 do
    Process.spawn s
      ~name:(Printf.sprintf "p%d" i)
      (fun () ->
        log := (2 * i) :: !log;
        Process.yield ();
        log := ((2 * i) + 1) :: !log)
  done;
  Engine.run e;
  List.rev !log

let test_explorer_determinism () =
  List.iter
    (fun seed ->
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d reproduces its interleaving" seed)
        (explore_order ~schedule_seed:seed ())
        (explore_order ~schedule_seed:seed ()))
    [ 1; 2; 3; 7; 42 ];
  Alcotest.(check (list int))
    "unseeded runs keep FIFO order on ties"
    (explore_order ()) (explore_order ());
  check_bool "some seed deviates from FIFO" true
    (List.exists
       (fun seed -> explore_order ~schedule_seed:seed () <> explore_order ())
       [ 1; 2; 3; 7; 42 ])

(* ------------------------------------------------------------------ *)
(* Source lint                                                         *)
(* ------------------------------------------------------------------ *)

let test_lint_flags_bad_source () =
  let file = Filename.temp_file "kite_lint_bad" ".ml" in
  let oc = open_out file in
  output_string oc
    "let leak gt d =\n\
    \  let h = Grant_table.map_one gt ~mapper:d 7 in\n\
    \  ignore h\n\n\
     let hot tr =\n\
    \  Kite_trace.Trace.note tr \"unguarded\"\n";
  close_out oc;
  let report = Report.create () in
  Kite_lint.Lint.lint_file report file;
  Sys.remove file;
  check_bool "unguarded hook flagged" true
    (Report.by_rule report "lint-hook-unguarded" <> []);
  check_bool "unpaired grant map flagged" true
    (Report.by_rule report "lint-grant-unpaired" <> [])

let test_lint_accepts_guarded_source () =
  let file = Filename.temp_file "kite_lint_ok" ".ml" in
  let oc = open_out file in
  output_string oc
    "let paired gt d =\n\
    \  let h = Grant_table.map_one gt ~mapper:d 7 in\n\
    \  Grant_table.unmap_one gt h\n\n\
     let guarded tr =\n\
    \  match tr with\n\
    \  | Some tr -> Kite_trace.Trace.note tr \"guarded\"\n\
    \  | None -> ()\n";
  close_out oc;
  let report = Report.create () in
  Kite_lint.Lint.lint_file report file;
  Sys.remove file;
  check_int "clean file lints clean" 0 (Report.count report)

(* lint-grant-unpaired keeps blkback under the rule: the batched map and
   unmap it calls are names the rule knows, so blkback lints clean as it
   is and is flagged once its unmaps are gone. *)
let test_lint_blkback_grants () =
  let src =
    (* From the test's build directory, or from the source root. *)
    let path = "lib/drivers/blkback.ml" in
    In_channel.with_open_bin
      (if Sys.file_exists ("../" ^ path) then "../" ^ path else path)
      In_channel.input_all
  in
  let lint text =
    let file = Filename.temp_file "kite_lint_blkback" ".ml" in
    Out_channel.with_open_bin file (fun oc -> output_string oc text);
    let report = Report.create () in
    Kite_lint.Lint.lint_file report file;
    Sys.remove file;
    List.length (Report.by_rule report "lint-grant-unpaired")
  in
  let without_unmaps =
    String.split_on_char '\n' src
    |> List.map (fun line ->
           let key = "Grant_table.unmap_many" in
           let n = String.length key in
           let b = Buffer.create (String.length line) in
           let rec go k =
             if k >= String.length line then ()
             else if k + n <= String.length line && String.sub line k n = key
             then (
               Buffer.add_string b "ignore";
               go (k + n))
             else (
               Buffer.add_char b line.[k];
               go (k + 1))
           in
           go 0;
           Buffer.contents b)
    |> String.concat "\n"
  in
  check_int "blkback lints clean" 0 (lint src);
  check_bool "blkback maps grants" true (without_unmaps <> src);
  check_int "blkback without its unmaps is flagged" 1 (lint without_unmaps)

(* ------------------------------------------------------------------ *)
(* Schedule-seed sweep of the driver stack                             *)
(* ------------------------------------------------------------------ *)

(* The stress shape of test_mq's sweep, run under ten explorer seeds
   with the race detector and protocol checker as co-oracles: whatever
   the interleaving, the drivers must stay free of detector findings.
   Every third seed crashes and restarts the driver domain mid-I/O to
   sweep the reconnect and teardown edges too. *)
(* The detector and the checker share [report]; every testbed built in
   [f] runs under the explorer seeded with [schedule_seed]. *)
let explored ~schedule_seed report f =
  Kite.Obs.run
    {
      Kite.Obs.none with
      check = Some report;
      race = Some (Race.sink ~report ());
      schedule_seed = Some schedule_seed;
    }
    f

let sweep_net ~schedule_seed ~crash report =
  explored ~schedule_seed report @@ fun () ->
  let s = Scenario.network ~flavor:Scenario.Kite ~seed:schedule_seed () in
  let restored = ref (not crash) and ok = ref 0 in
  Testbed.run s.Scenario.hv
    ~what:(Printf.sprintf "schedule seed %d: net workload" schedule_seed)
    ~within:(Time.sec 60) (fun finish ->
      Scenario.when_net_ready s (fun () ->
          if crash then
            Scenario.crash_and_restart_net s ~flavor:Scenario.Kite
              ~at:(Time.ms 5)
              ~on_restored:(fun ~downtime:_ -> restored := true)
              ();
          let seq = ref 0 in
          while not !restored do
            incr seq;
            ignore
              (Kite_net.Stack.ping s.Scenario.client_stack
                 ~dst:s.Scenario.guest_ip ~timeout:(Time.ms 20) ~seq:!seq ());
            Process.sleep (Time.ms 5)
          done;
          for k = 1 to 3 do
            match
              Kite_net.Stack.ping s.Scenario.client_stack
                ~dst:s.Scenario.guest_ip ~timeout:(Time.ms 100)
                ~seq:(!seq + k) ()
            with
            | Some _ -> incr ok
            | None -> ()
          done;
          finish ()));
  check_int
    (Printf.sprintf "schedule seed %d: steady-state pings answered"
       schedule_seed)
    3 !ok

let sweep_blk ~schedule_seed ~crash report =
  explored ~schedule_seed report @@ fun () ->
  let s = Scenario.storage ~flavor:Scenario.Kite () in
  let restored = ref (not crash) and verify_errors = ref 0 in
  Testbed.run s.Scenario.bhv
    ~what:(Printf.sprintf "schedule seed %d: blk workload" schedule_seed)
    ~within:(Time.sec 60) (fun finish ->
      Scenario.when_blk_ready s (fun () ->
          if crash then
            Scenario.crash_and_restart_blk s ~flavor:Scenario.Kite
              ~at:(Time.ms 2)
              ~on_restored:(fun ~downtime:_ -> restored := true)
              ();
          let front = s.Scenario.blkfront in
          let fill k = Char.chr (Char.code 'a' + (k mod 26)) in
          for k = 0 to 3 do
            Kite_drivers.Blkfront.write front ~sector:(k * 8)
              (Bytes.make 4096 (fill k))
          done;
          for k = 0 to 3 do
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
    (Printf.sprintf "schedule seed %d: zero corrupted bytes" schedule_seed)
    0 !verify_errors

let test_schedule_seed_sweep () =
  let report = Report.create () in
  for schedule_seed = 1 to 10 do
    let crash = schedule_seed mod 3 = 0 in
    if schedule_seed mod 2 = 0 then sweep_blk ~schedule_seed ~crash report
    else sweep_net ~schedule_seed ~crash report
  done;
  check_int "zero detector/checker errors across ten schedules" 0
    (Report.errors report);
  check_int "zero detector warnings across ten schedules" 0
    (Report.warnings report)

(* lint-teardown-missing keys on the arming function: a file that
   builds a hypervisor and arms it through Scenario.arm must call
   Scenario.register_teardown somewhere in the file. *)
let test_lint_teardown_missing () =
  let lint src =
    let file = Filename.temp_file "kite_lint_arm" ".ml" in
    let oc = open_out file in
    output_string oc src;
    close_out oc;
    let report = Report.create () in
    Kite_lint.Lint.lint_file report file;
    Sys.remove file;
    ( Report.count report,
      List.length (Report.by_rule report "lint-teardown-missing") )
  in
  let testbed =
    "let testbed () =\n\
    \  let hv = Hypervisor.create () in\n\
    \  Scenario.arm hv \"t-\"\n"
  in
  check_int "arming without a teardown is flagged" 1 (snd (lint testbed));
  check_int "naming Scenario's private list registers nothing" 1
    (snd (lint (testbed ^ "\nlet pending () = !teardowns\n")));
  let registered =
    testbed
    ^ "\nlet torn_down () =\n\
      \  let ctx = testbed () in\n\
      \  Scenario.register_teardown ctx ~dd:(Hypervisor.dom0 ctx.hv)\n\
      \    ~stop:ignore ~shutdown:ignore\n"
  in
  check_int "with a registration it lints clean" 0 (fst (lint registered))

(* lint-testbed-unarmed: outside Scenario, a machine's context comes
   from Scenario.arm, never from a bare Xen_ctx.create. *)
let test_lint_testbed_unarmed () =
  let lint src =
    let file = Filename.temp_file "kite_lint_ctx" ".ml" in
    let oc = open_out file in
    output_string oc src;
    close_out oc;
    let report = Report.create () in
    Kite_lint.Lint.lint_file report file;
    Sys.remove file;
    report
  in
  let testbed ctx =
    "let testbed () =\n\
    \  let hv = Hypervisor.create () in\n\
    \  let ctx = " ^ ctx ^ " in\n\
    \  Scenario.register_teardown ctx ~dd:(Hypervisor.dom0 hv)\n\
    \    ~stop:ignore ~shutdown:ignore;\n\
    \  ctx\n"
  in
  let hand_built = lint (testbed "Xen_ctx.create hv") in
  check_int "a hand-built context is flagged" 1
    (List.length (Report.by_rule hand_built "lint-testbed-unarmed"));
  check_int "it is the only finding" 1 (Report.count hand_built);
  check_int "an armed testbed lints clean" 0
    (Report.count (lint (testbed "Scenario.arm hv \"t-\"")))

let suite =
  [
    ("race: injected lost update", `Quick, test_injected_lost_update);
    ("race: injected atomicity violation", `Quick, test_injected_atomicity);
    ("race: injected unordered writes", `Quick, test_injected_unordered);
    ("race: recv from dead sender", `Quick, test_mailbox_edge_dead_sender);
    ("race: broadcast double wake", `Quick, test_condition_double_wake);
    ( "race: signal before wait is no edge",
      `Quick,
      test_condition_signal_before_wait );
    ("race: quiesce claims exit edges", `Quick, test_quiesce_edge);
    ("race: explorer determinism", `Quick, test_explorer_determinism);
    ("lint: flags bad source", `Quick, test_lint_flags_bad_source);
    ("lint: accepts guarded source", `Quick, test_lint_accepts_guarded_source);
    ("lint: blkback's grant maps are paired", `Quick, test_lint_blkback_grants);
    ("race: ten-schedule stress sweep", `Slow, test_schedule_seed_sweep);
    ("lint: arming without teardown", `Quick, test_lint_teardown_missing);
    ("lint: context built by hand", `Quick, test_lint_testbed_unarmed);
    ("race: pid slot reuse", `Quick, test_pid_slot_reuse);
  ]
