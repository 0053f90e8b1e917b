(* Armed against disarmed observability: the sinks' hooks cost no
   simulated time, so a run gives the same simulated results with no
   sink, with the tracer only, and with all five run-wide sinks armed
   (check, trace, metrics, path, flight), on the net and storage paths. *)

open Kite_sim
module Scenario = Kite.Scenario
module Check = Kite_check.Check
module Report = Kite_check.Report
module Trace = Kite_trace.Trace
module Registry = Kite_metrics.Registry
module Path = Kite_path.Path
module Flight = Kite_flight.Flight
module Blkfront = Kite_drivers.Blkfront

type sinks = No_sink | Trace_only | All_five

let disarm () =
  Check.set_default None;
  Trace.set_default None;
  Registry.set_default None;
  Path.set_default None;
  Flight.set_default None

(* Run [f] with [sinks] armed the way the kite_ctl subcommands arm them,
   then tear its testbeds down and require a clean checker report. *)
let armed sinks f =
  let report = Report.create () in
  (match sinks with
  | No_sink -> ()
  | Trace_only -> Trace.set_default (Some (Trace.sink ()))
  | All_five ->
      Check.set_default (Some (Check.default_config, report));
      Trace.set_default (Some (Trace.sink ()));
      Registry.set_default (Some (Registry.sink ()));
      Path.set_default (Some (Path.sink ()));
      Flight.set_default (Some (Flight.sink ())));
  let v =
    Fun.protect
      ~finally:(fun () ->
        Scenario.teardown_all ();
        disarm ())
      f
  in
  Alcotest.(check int) "zero checker errors" 0 (Report.errors report);
  v

(* Net: the 2-queue multi-queue Tx workload. *)
let net_gbps sinks =
  armed sinks (fun () ->
      Kite.Experiments.mq_run_gbps ~duration:(Time.ms 3) ~mq:true 2)

let test_net_armed () =
  let none = net_gbps No_sink in
  Alcotest.(check (float 0.)) "trace only = no sink" none (net_gbps Trace_only);
  Alcotest.(check (float 0.)) "all five armed = no sink" none
    (net_gbps All_five)

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
      let finished = ref None in
      let timed f =
        let t0 = Kite_xen.Hypervisor.now hv in
        let v = f () in
        lat := (Kite_xen.Hypervisor.now hv - t0) :: !lat;
        bytes := !bytes + block;
        v
      in
      Scenario.when_blk_ready s (fun () ->
          for k = 0 to 15 do
            timed (fun () ->
                Blkfront.write front ~sector:(k * sectors) (pattern k))
          done;
          for k = 0 to 15 do
            let got =
              timed (fun () ->
                  Blkfront.read front ~sector:(k * sectors) ~count:sectors)
            in
            if not (Bytes.equal got (pattern k)) then incr bad
          done;
          finished := Some (Kite_xen.Hypervisor.now hv));
      Kite_xen.Hypervisor.run_for hv (Time.sec 1);
      Alcotest.(check int) "every read verified" 0 !bad;
      match !finished with
      | Some at -> (at, !bytes, List.rev !lat)
      | None -> Alcotest.fail "storage run did not finish")

let test_blk_armed () =
  let at, bytes, lat = blk_run No_sink in
  let at', bytes', lat' = blk_run All_five in
  Alcotest.(check int) "completion instant" at at';
  Alcotest.(check int) "bytes" bytes bytes';
  Alcotest.(check (list int)) "latency samples" lat lat'

let suite =
  [
    ("net: no sink = trace = all five armed", `Quick, test_net_armed);
    ("blk: no sink = all five armed", `Quick, test_blk_armed);
  ]
