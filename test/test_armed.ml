(* Armed against disarmed observability: the sinks observe without
   costing simulated time, so a run gives the same simulated results
   with no sink, with the tracer only, and with the run-wide sinks
   armed, on the net and storage paths and in every quick experiment's
   tables. *)

open Kite_sim
module Scenario = Kite.Scenario
module Obs = Kite.Obs
module Report = Kite_check.Report
module Trace = Kite_trace.Trace
module Registry = Kite_metrics.Registry
module Path = Kite_path.Path
module Flight = Kite_flight.Flight
module Blkfront = Kite_drivers.Blkfront

(* What a run arms, given the run's checker report. *)
let no_sink _ = Obs.none
let trace_only _ = { Obs.none with trace = Some (Trace.sink ()) }

let all_five report =
  {
    Obs.none with
    check = Some report;
    trace = Some (Trace.sink ());
    metrics = Some (Registry.sink ());
    path = Some (Path.sink ());
    flight = Some (Flight.sink ());
  }

(* Run [f] with [sinks] armed the way the kite_ctl subcommands arm them
   and require a clean checker report. *)
let armed sinks f =
  let report = Report.create () in
  let v = Obs.run (sinks report) f in
  Alcotest.(check int) "zero checker errors" 0 (Report.errors report);
  v

(* Net: the 2-queue multi-queue Tx workload. *)
let net_gbps sinks =
  armed sinks (fun () ->
      Kite.Experiments.mq_run_gbps ~duration:(Time.ms 3) ~mq:true 2)

let test_net_armed () =
  let none = net_gbps no_sink in
  Alcotest.(check (float 0.)) "trace only = no sink" none (net_gbps trace_only);
  Alcotest.(check (float 0.)) "all five armed = no sink" none
    (net_gbps all_five)

(* Storage: sixteen 64 KiB writes, then each block read back and
   verified.  Returns the simulated completion instant, the bytes moved
   and every request's simulated latency, in the order sent. *)
let block = 64 * 1024
let sectors = block / Blkfront.sector_size
let pattern k = Bytes.init block (fun i -> Char.chr (((i * 7) + k) land 0xff))

let blk_run sinks =
  armed sinks (fun () ->
      let s = Scenario.storage ~flavor:Scenario.Kite () in
      let hv = s.Scenario.bhv in
      let front = s.Scenario.blkfront in
      let lat = ref [] and bytes = ref 0 and bad = ref 0 in
      let timed f =
        let t0 = Kite_xen.Hypervisor.now hv in
        let v = f () in
        lat := (Kite_xen.Hypervisor.now hv - t0) :: !lat;
        bytes := !bytes + block;
        v
      in
      let at =
        Testbed.run hv ~what:"armed storage run" ~within:(Time.sec 1)
          (fun finish ->
            Scenario.when_blk_ready s (fun () ->
                for k = 0 to 15 do
                  timed (fun () ->
                      Blkfront.write front ~sector:(k * sectors) (pattern k))
                done;
                for k = 0 to 15 do
                  let got =
                    timed (fun () ->
                        Blkfront.read front ~sector:(k * sectors)
                          ~count:sectors)
                  in
                  if not (Bytes.equal got (pattern k)) then incr bad
                done;
                finish (Kite_xen.Hypervisor.now hv)))
      in
      Alcotest.(check int) "every read verified" 0 !bad;
      (at, !bytes, List.rev !lat))

let test_blk_armed () =
  let at, bytes, lat = blk_run no_sink in
  let at', bytes', lat' = blk_run all_five in
  Alcotest.(check int) "completion instant" at at';
  Alcotest.(check int) "bytes" bytes bytes';
  Alcotest.(check (list int)) "latency samples" lat lat'

(* The context itself: [Obs.run] puts the previous record back when its
   body raises, and nests the way restart-recovery arms its private
   sinks inside kite_ctl flight's, without replacing the ones already
   armed. *)
exception Boom

let same (a : Obs.t) (b : Obs.t) =
  let eq x y =
    match (x, y) with
    | None, None -> true
    | Some x, Some y -> x == y
    | _ -> false
  in
  eq a.check b.check && eq a.race b.race && eq a.trace b.trace
  && eq a.fault b.fault && eq a.metrics b.metrics && eq a.path b.path
  && eq a.flight b.flight
  && a.schedule_seed = b.schedule_seed

let test_obs_restores_on_raise () =
  let outer =
    {
      Obs.none with
      check = Some (Report.create ());
      trace = Some (Trace.sink ());
      schedule_seed = Some 3;
    }
  in
  let inner =
    {
      Obs.check = Some (Report.create ());
      race = Some (Kite_race.Race.sink ());
      trace = None;
      fault = Some (Kite_fault.Fault.sink []);
      metrics = Some (Registry.sink ());
      path = Some (Path.sink ());
      flight = Some (Flight.sink ());
      schedule_seed = Some 9;
    }
  in
  Alcotest.(check bool) "nothing armed outside" true
    (same Obs.none (Obs.current ()));
  Obs.run outer (fun () ->
      Alcotest.(check bool) "outer installed" true
        (same outer (Obs.current ()));
      (match
         Obs.run inner (fun () ->
             Alcotest.(check bool) "inner installed" true
               (same inner (Obs.current ()));
             raise Boom)
       with
      | () -> Alcotest.fail "the body raised"
      | exception Boom -> ());
      Alcotest.(check bool) "outer back after the inner body raised" true
        (same outer (Obs.current ())));
  Alcotest.(check bool) "nothing armed after" true
    (same Obs.none (Obs.current ()));
  Alcotest.(check bool) "checker transport cleared" true
    (Kite_check.Check.default () = None)

let test_obs_nests () =
  let report = Report.create () and fsink = Flight.sink () in
  let outer =
    {
      Obs.none with
      check = Some report;
      trace = Some (Trace.sink ());
      flight = Some fsink;
    }
  in
  let s =
    Obs.run outer (fun () ->
        let o = Obs.current () in
        let s =
          Obs.run
            {
              o with
              flight = Obs.ensure o.flight Flight.sink;
              fault = Obs.ensure o.fault (fun () -> Kite_fault.Fault.sink []);
            }
            (fun () -> Scenario.storage ~flavor:Scenario.Kite ())
        in
        Alcotest.(check bool) "outer back after the nested run" true
          (same outer (Obs.current ()));
        s)
  in
  let ctx = s.Scenario.bctx in
  Alcotest.(check bool) "the enclosing run's recorder armed the machine" true
    (match ctx.Kite_drivers.Xen_ctx.flight with
    | Some fl -> List.memq fl (Flight.flights fsink)
    | None -> false);
  Alcotest.(check bool) "the private fault sink filled the gap" true
    (ctx.Kite_drivers.Xen_ctx.fault <> None);
  Alcotest.(check bool) "checker and tracer kept" true
    (ctx.Kite_drivers.Xen_ctx.check <> None
    && ctx.Kite_drivers.Xen_ctx.trace <> None);
  Kite_xen.Hypervisor.run_for s.Scenario.bhv (Time.sec 1);
  (* Torn down outside every run: the audits still reach the report the
     machine was armed with. *)
  Scenario.teardown_all ();
  Alcotest.(check bool) "nothing armed after" true
    (same Obs.none (Obs.current ()));
  Alcotest.(check int) "clean audit" 0 (Report.errors report)

(* The multi-NIC scale testbed arms through Scenario.arm like every
   other: a traced run builds one tracer per machine (one NIC, then two),
   and its teardown leaves the checker's audits clean. *)
let test_scale_armed () =
  let report = Report.create () in
  let sink = Trace.sink () in
  Obs.run
    { Obs.none with check = Some report; trace = Some sink }
    (fun () ->
      match Kite.Experiments.find "scale" with
      | Some (_, _, f) -> ignore (f ~quick:true)
      | None -> Alcotest.fail "no scale experiment");
  Alcotest.(check int) "one tracer per machine" 2
    (List.length (Trace.traces sink));
  Alcotest.(check int) "zero checker findings" 0 (Report.count report)

(* Every quick experiment prints the same tables armed or disarmed: the
   sinks that check and record (checker, an empty fault plan, metrics,
   flight recorder), then the tracer (counting, as a sink's members do
   by default) with the path engine; fig7 and fig11 also under a
   recording tracer, so both tracer modes are shown to leave the tables
   alone.  Member names print in some tables; they number machines, not
   members, so they do not depend on which sinks are armed either.

   Skipped for host time: each of these nine takes 0.8 to 7 s unarmed
   on a 2-vCPU VM, against at most 0.3 s for the others, so comparing
   them would add about a minute to the suite. *)
let heavy =
  [ "fig5"; "fig8a"; "fig8b"; "fig9"; "fig10"; "table4"; "fig12"; "fig13";
    "swarm" ]

let recording report =
  {
    Obs.none with
    check = Some report;
    fault = Some (Kite_fault.Fault.sink []);
    metrics = Some (Registry.sink ());
    flight = Some (Flight.sink ());
  }

let tracing _ =
  { Obs.none with trace = Some (Trace.sink ()); path = Some (Path.sink ()) }

let tracing_recorded _ =
  {
    Obs.none with
    trace = Some (Trace.sink ~record:true ());
    path = Some (Path.sink ());
  }

let recorded = [ "fig7"; "fig11" ]

let tables sinks f =
  armed sinks (fun () ->
      let outcome = f ~quick:true in
      String.concat "\n"
        (List.map Kite_stats.Table.render outcome.Kite.Experiments.tables))

let test_tables id f () =
  let none = tables no_sink f in
  Alcotest.(check string) "check, fault, metrics, flight = no sink" none
    (tables recording f);
  (* Restart-recovery's private flight recorders tap whatever tracer and
     path engine are armed, and its tables print what they captured: the
     ring occupancy (9 records a machine untraced; 201 per blk and 22
     per net machine traced), the span records in each incident
     timeline and the kite_path_* rows of each incident's metrics delta.
     That is observer state, not simulated output; every other cell
     matches. *)
  if id <> "restart-recovery" then
    Alcotest.(check string) "trace, path = no sink" none (tables tracing f);
  if List.mem id recorded then
    Alcotest.(check string) "recording trace, path = no sink" none
      (tables tracing_recorded f)

let suite =
  [
    ("net: no sink = trace = all five armed", `Quick, test_net_armed);
    ("blk: no sink = all five armed", `Quick, test_blk_armed);
    ("obs: restores on raise", `Quick, test_obs_restores_on_raise);
    ("obs: nests", `Quick, test_obs_nests);
    ("scale: armed like every testbed", `Quick, test_scale_armed);
  ]
  @ List.filter_map
      (fun (id, _, f) ->
        if List.mem id heavy then None
        else Some (id ^ ": armed = disarmed", `Quick, test_tables id f))
      Kite.Experiments.all
