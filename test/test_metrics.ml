(* kite_metrics: registry semantics, Prometheus exposition round-trip,
   health probes, scenario integration (backend counters and their
   sampled series, the Dom0 sampler that only observes, backend-state
   alerts) and the no-instruments-when-disabled guarantee. *)

open Kite_sim
open Kite
module R = Kite_metrics.Registry

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Registry unit tests                                                 *)
(* ------------------------------------------------------------------ *)

let test_instruments () =
  let r = R.create ~name:"m" () in
  let c = R.counter r "reqs_total" [ ("dev", "a") ] in
  R.inc c;
  R.add c 4;
  check_bool "counter value" true
    (R.value r "reqs_total" [ ("dev", "a") ] = Some 5.);
  (* Label order is canonicalised. *)
  let g = R.gauge r "depth" [ ("q", "tx"); ("dev", "a") ] in
  R.set g 3.5;
  check_bool "gauge via reordered labels" true
    (R.value r "depth" [ ("dev", "a"); ("q", "tx") ] = Some 3.5);
  (* Polled style; histograms read as their count. *)
  let n = ref 2 in
  R.counter_fn r "polled_total" [] (fun () -> !n);
  n := 7;
  check_bool "polled evaluates at read time" true
    (R.value r "polled_total" [] = Some 7.);
  let h = R.histogram r "lat_ns" [] in
  R.observe h 10.;
  R.observe h 20.;
  check_bool "histogram reads as count" true (R.value r "lat_ns" [] = Some 2.);
  check_bool "quantile inside range" true
    (match R.quantile r "lat_ns" [] 0.5 with
    | Some q -> q >= 10. && q <= 20.
    | None -> false);
  (* families: sorted, with kinds. *)
  let fams = List.map (fun (name, _, _) -> name) (R.families r) in
  check_bool "families sorted" true
    (fams = List.sort String.compare fams && List.mem "lat_ns" fams);
  (* Misuse is rejected: kind clash, style clash, bad names. *)
  check_bool "kind clash" true
    (raises_invalid (fun () -> R.gauge r "reqs_total" [ ("dev", "a") ]));
  check_bool "pushed/polled clash" true
    (raises_invalid (fun () -> R.counter_fn r "reqs_total" [ ("dev", "a") ] (fun () -> 0)));
  check_bool "bad family name" true
    (raises_invalid (fun () -> R.counter r "9bad" []));
  check_bool "bad label name" true
    (raises_invalid (fun () -> R.counter r "ok_total" [ ("9bad", "v") ]))

(* Each instance keeps three anchors: its first sample, its newest
   sample and the instant its value last changed. *)
let test_sampling_and_series () =
  let r = R.create ~name:"m" () in
  let n = ref 0 in
  R.counter_fn r "c_total" [] (fun () -> !n);
  check_bool "no sample yet" true (R.last_sample r "c_total" [] = None);
  R.sample r ~at:0;
  check_bool "no rate before a change" true (R.rate r "c_total" [] = None);
  for i = 1 to 5 do
    n := i;
    R.sample r ~at:(i * 100)
  done;
  check_int "samples taken" 6 (R.samples_taken r);
  check_bool "last sample" true (R.last_sample r "c_total" [] = Some (500, 5.));
  (* The rate runs from the first sample. *)
  (match R.rate r "c_total" [] with
  | Some per_s -> Alcotest.(check (float 1e-3)) "rate" 1e7 per_s
  | None -> Alcotest.fail "rate after sampling");
  (* An idle tail does not dilute the rate (active-window semantics). *)
  R.sample r ~at:10_000_000;
  check_bool "last sample after idle tail" true
    (R.last_sample r "c_total" [] = Some (10_000_000, 5.));
  (match R.rate r "c_total" [] with
  | Some per_s -> Alcotest.(check (float 1e-3)) "rate after idle tail" 1e7 per_s
  | None -> Alcotest.fail "rate after idle tail");
  (* Replacing a polled closure keeps the anchors. *)
  R.counter_fn r "c_total" [] (fun () -> 42);
  check_bool "anchors survive re-registration" true
    (R.last_sample r "c_total" [] = Some (10_000_000, 5.)
    && R.rate r "c_total" [] = Some 1e7);
  check_bool "new closure polls" true (R.value r "c_total" [] = Some 42.);
  R.sample r ~at:10_000_100;
  (match R.rate r "c_total" [] with
  | Some per_s ->
      Alcotest.(check (float 1e-3)) "rate from the first sample"
        (42. /. 10_000_100. *. 1e9) per_s
  | None -> Alcotest.fail "rate after re-registration");
  (* A change is against the previous sample: a gauge back at its first
     value has still moved. *)
  let g = R.gauge r "g" [] in
  List.iteri
    (fun k v ->
      R.set g v;
      R.sample r ~at:(k * 100))
    [ 1.; 2.; 2.; 1. ];
  check_bool "return to the first value is a change" true
    (R.rate r "g" [] = Some 0.)

(* Freezing keeps every reading: polled values (a raising closure as
   nan), pushed instruments, alerts; the closures and probes go. *)
let test_freeze () =
  let same what a b =
    (* [compare], not [=]: a nan reading equals itself. *)
    check_bool what true (compare a b = 0)
  in
  let reads r = (R.read r, R.to_json [ r ], R.to_prometheus [ r ]) in
  let r = R.create ~name:"f" () in
  let n = ref 3 in
  R.counter_fn r "polled_total" [ ("dev", "a") ] (fun () -> !n);
  R.gauge_fn r "polled" [] (fun () -> float_of_int !n /. 2.);
  R.gauge_fn r "broken" [] (fun () -> failwith "gone");
  R.add (R.counter r "pushed_total" []) 7;
  R.set (R.gauge r "level" []) 1.5;
  List.iter (R.observe (R.histogram r "lat_ns" [])) [ 10.; 200.; 3000. ];
  let probed = ref 0 in
  R.probe r ~name:"always" [] (fun () ->
      incr probed;
      R.Alert "down");
  R.sample r ~at:100;
  n := 4;
  R.sample r ~at:200;
  let before = reads r in
  R.freeze r;
  same "read, json and prometheus" before (reads r);
  n := 5;
  same "closures no longer polled" before (reads r);
  check_bool "raising closure kept as nan" true
    (match R.value r "broken" [] with Some v -> Float.is_nan v | None -> false);
  R.sample r ~at:300;
  check_int "probes dropped" 2 !probed;
  check_int "alert kept" 1 (List.length (R.alerts r));
  check_bool "anchors kept" true
    (R.last_sample r "polled_total" [ ("dev", "a") ] = Some (300, 4.)
    && R.rate r "polled_total" [ ("dev", "a") ] = Some 1e7);
  R.counter_fn r "polled_total" [ ("dev", "a") ] (fun () -> !n);
  check_bool "re-registration polls again" true
    (R.value r "polled_total" [ ("dev", "a") ] = Some 5.);
  (* A live metered machine: its registry reads the same frozen. *)
  let sink = R.sink () in
  Obs.run { Obs.none with metrics = Some sink } (fun () ->
      Fun.protect ~finally:Scenario.teardown_all @@ fun () ->
      let s = Scenario.storage ~flavor:Scenario.Kite () in
      let dev = Scenario.blockdev s in
      Scenario.when_blk_ready s (fun () ->
          dev.Kite_vfs.Blockdev.write ~sector:0 (Bytes.make 4096 'f'));
      Kite_xen.Hypervisor.run_for s.Scenario.bhv (Time.ms 500);
      match R.registries sink with
      | [ r ] ->
          let before = reads r in
          R.freeze r;
          same "machine registry reads the same frozen" before (reads r)
      | rs -> Alcotest.failf "expected 1 registry, got %d" (List.length rs))

let test_prometheus_roundtrip () =
  let r = R.create ~name:"m1" () in
  let c = R.counter r "reqs_total" [ ("path", "a\"b\\c\nd") ] in
  R.add c 12;
  let g = R.gauge r "temp" [] in
  R.set g (-1.5);
  let h = R.histogram r "lat_ns" ~base:10. ~factor:10. [] in
  List.iter (R.observe h) [ 5.; 5.; 50.; 5000. ];
  let text = R.to_prometheus [ r ] in
  check_bool "help/type lines" true
    (contains text "# TYPE reqs_total counter"
    && contains text "# TYPE lat_ns histogram");
  let samples = R.parse_prometheus text in
  let find name = List.filter (fun (n, _, _) -> n = name) samples in
  (* Escaped label values survive the round trip. *)
  check_bool "counter with escaped label" true
    (List.exists
       (fun (_, ls, v) -> ls = [ ("path", "a\"b\\c\nd") ] && v = 12.)
       (find "reqs_total"));
  check_bool "negative gauge" true
    (List.exists (fun (_, _, v) -> v = -1.5) (find "temp"));
  (* Histogram: cumulative buckets ending at +Inf, plus _sum/_count. *)
  let infb =
    List.find_opt
      (fun (_, ls, _) -> List.mem_assoc "le" ls && List.assoc "le" ls = "+Inf")
      (find "lat_ns_bucket")
  in
  check_bool "+Inf bucket counts all" true
    (match infb with Some (_, _, v) -> v = 4. | None -> false);
  let cum =
    List.filter_map
      (fun (_, ls, v) ->
        if List.mem_assoc "le" ls then Some v else None)
      (find "lat_ns_bucket")
  in
  check_bool "buckets monotone" true
    (cum = List.sort compare cum && List.length cum > 1);
  check_bool "_count" true
    (List.exists (fun (_, _, v) -> v = 4.) (find "lat_ns_count"));
  check_bool "_sum" true
    (List.exists (fun (_, _, v) -> Float.abs (v -. 5060.) < 1.) (find "lat_ns_sum"));
  (* Multi-registry exposition adds machine labels. *)
  let r2 = R.create ~name:"m2" () in
  R.counter_fn r2 "other_total" [] (fun () -> 1);
  let multi = R.parse_prometheus (R.to_prometheus [ r; r2 ]) in
  check_bool "machine label everywhere" true
    (multi <> []
    && List.for_all (fun (_, ls, _) -> List.mem_assoc "machine" ls) multi);
  (* Malformed sample lines are rejected. *)
  check_bool "parse rejects garbage" true
    (raises_invalid (fun () -> R.parse_prometheus "not a sample line"))

let test_probes_edge_triggered () =
  let r = R.create ~name:"m" () in
  let bad = ref false in
  R.probe r ~name:"kite_thing_stuck" [ ("dev", "d0") ] (fun () ->
      if !bad then R.Alert "stuck" else R.Healthy);
  R.sample r ~at:0;
  bad := true;
  R.sample r ~at:100;
  R.sample r ~at:200;
  (* still bad: no second alert *)
  bad := false;
  R.sample r ~at:300;
  bad := true;
  R.sample r ~at:400;
  (match R.alerts r with
  | [ a1; a2 ] ->
      check_int "first edge" 100 a1.R.alert_at;
      check_int "second edge" 400 a2.R.alert_at;
      Alcotest.(check string) "probe name" "kite_thing_stuck" a1.R.alert_probe;
      Alcotest.(check string) "msg" "stuck" a1.R.alert_msg;
      check_bool "labels kept" true (a1.R.alert_labels = [ ("dev", "d0") ])
  | al -> Alcotest.failf "expected 2 edge alerts, got %d" (List.length al));
  check_bool "alerts_total counter" true
    (R.value r "kite_alerts_total" [] = Some 2.);
  (* A probe that raises reads as Healthy. *)
  R.probe r ~name:"kite_broken_probe" [] (fun () -> failwith "boom");
  R.sample r ~at:500;
  check_int "raising probe never fires" 2 (List.length (R.alerts r))

let test_stalled_probe () =
  let pending = ref 0 and progress = ref 0 in
  let p =
    R.stalled_probe ~ticks:2
      ~pending:(fun () -> !pending)
      ~progress:(fun () -> !progress)
      ()
  in
  check_bool "idle healthy" true (p () = R.Healthy);
  pending := 3;
  progress := 1;
  check_bool "progress moved" true (p () = R.Healthy);
  check_bool "one static tick" true (p () = R.Healthy);
  check_bool "stalled after ticks" true
    (match p () with R.Alert _ -> true | R.Healthy -> false);
  progress := 2;
  check_bool "recovers on progress" true (p () = R.Healthy);
  pending := 0;
  check_bool "recovers on drain" true (p () = R.Healthy)

(* ------------------------------------------------------------------ *)
(* Scenario integration                                                *)
(* ------------------------------------------------------------------ *)

let with_sink f =
  let sink = R.sink () in
  Kite.Obs.run { Kite.Obs.none with metrics = Some sink } f;
  sink

(* A registry only observes: no backend publishes a [stats] node under
   [backend/<ty>/<F>/<D>], and Dom0's sampler, whose probes peek at the
   store, is never charged simulated time. *)
let check_observer_only hv r =
  let xs = Kite_xen.Hypervisor.store hv in
  let dirs path =
    List.map (fun c -> path ^ "/" ^ c) (Kite_xen.Xenstore.directory xs ~path)
  in
  let devices =
    dirs "/local/domain"
    |> List.concat_map (fun d -> dirs (d ^ "/backend"))
    |> List.concat_map dirs |> List.concat_map dirs
  in
  check_bool "backends found" true (devices <> []);
  check_bool "no backend stats node" false
    (List.exists
       (fun dev -> Kite_xen.Xenstore.exists xs ~path:(dev ^ "/stats"))
       devices);
  check_bool "Dom0 sampler uncharged" true
    (R.value r "kite_sched_domain_busy_ns_total" [ ("domain", "Dom0") ]
    = Some 0.)

let backend_value r name labels =
  Option.map snd (R.last_sample r name (("side", "backend") :: labels))

let test_storage_scenario_metered () =
  let sampled = ref (None, None) in
  let sink =
    with_sink (fun () ->
        let s = Scenario.storage ~flavor:Scenario.Kite () in
        let r = Option.get s.Scenario.bctx.Kite_drivers.Xen_ctx.metrics in
        let domu = s.Scenario.bdomu.Kite_xen.Domain.id in
        let vbd = [ ("vbd", Printf.sprintf "vbd%d.0" domu) ] in
        let requests () = backend_value r "kite_blk_requests_total" vbd in
        let dev = Scenario.blockdev s in
        sampled :=
          Testbed.run s.Scenario.bhv ~what:"metered I/O" ~within:(Time.sec 5)
            (fun finish ->
              Scenario.when_blk_ready s (fun () ->
                  let data = Bytes.make 4096 'm' in
                  dev.Kite_vfs.Blockdev.write ~sector:0 data;
                  ignore (dev.Kite_vfs.Blockdev.read ~sector:0 ~count:8);
                  (* Give the sampler a tick, read the series, then issue
                     more I/O: the series must move on, not freeze at its
                     first value. *)
                  Process.sleep (Time.ms 300);
                  let mid = requests () in
                  dev.Kite_vfs.Blockdev.write ~sector:64 data;
                  dev.Kite_vfs.Blockdev.flush ();
                  Process.sleep (Time.ms 300);
                  finish (mid, requests ())));
        check_observer_only s.Scenario.bhv r)
  in
  match R.registries sink with
  | [ r ] ->
      check_bool "sampler ran" true (R.samples_taken r > 0);
      (* Counters flowed through the polled closures. *)
      let got name =
        List.exists (fun (n, _, v) -> n = name && v > 0.) (R.read r)
      in
      check_bool "blk requests counted" true (got "kite_blk_requests_total");
      check_bool "blk segments counted" true (got "kite_blk_segments_total");
      check_bool "blk latency observed" true (got "kite_blk_latency_ns");
      (* The exposition covers every instrumented subsystem. *)
      let text = R.to_prometheus [ r ] in
      List.iter
        (fun fam -> check_bool fam true (contains text fam))
        [
          "kite_blk_requests_total";
          "kite_blk_ring_pending";
          "kite_blk_persistent_grants";
          "kite_grant_maps_total";
          "kite_grant_active";
          "kite_evtchn_notifications_total";
          "kite_sched_runq_depth";
          "kite_sched_domain_busy_ns_total";
        ];
      (* The backend's request counter is sampled after connect and its
         series keeps moving. *)
      (match !sampled with
      | Some a, Some b ->
          check_bool "requests series live" true (a > 0.);
          check_bool "requests series refreshed" true (b > a)
      | _ -> Alcotest.fail "backend requests series missing");
      check_bool "healthy run, no alerts" true (R.alerts r = [])
  | rs -> Alcotest.failf "expected 1 registry, got %d" (List.length rs)

let test_network_scenario_metered () =
  let sink =
    with_sink (fun () ->
        let s = Scenario.network ~flavor:Scenario.Kite () in
        Testbed.run s.Scenario.hv ~what:"metered pings" ~within:(Time.sec 5)
          (fun finish ->
            Scenario.when_net_ready s (fun () ->
                for seq = 1 to 3 do
                  ignore
                    (Kite_net.Stack.ping s.Scenario.client_stack
                       ~dst:s.Scenario.guest_ip ~seq ())
                done;
                (* Give the sampler a tick. *)
                Process.sleep (Time.ms 300);
                finish ()));
        (* The sampled series saw the backend's Tx packets. *)
        let r = Option.get s.Scenario.ctx.Kite_drivers.Xen_ctx.metrics in
        let domu = s.Scenario.domu.Kite_xen.Domain.id in
        let vif = [ ("vif", Printf.sprintf "vif%d.0" domu) ] in
        (match backend_value r "kite_net_tx_packets_total" vif with
        | Some n -> check_bool "vif tx series live" true (n > 0.)
        | None -> Alcotest.fail "vif tx series missing");
        check_observer_only s.Scenario.hv r)
  in
  match R.registries sink with
  | [ r ] ->
      check_bool "net registry attached" true
        (List.exists
           (fun (n, _, v) -> n = "kite_net_tx_packets_total" && v > 0.)
           (R.read r));
      let text = R.to_prometheus [ r ] in
      List.iter
        (fun fam -> check_bool fam true (contains text fam))
        [
          "kite_net_tx_packets_total";
          "kite_net_rx_bytes_total";
          "kite_net_ring_pending";
          "kite_net_tx_batch";
          "kite_grant_copies_total";
          "kite_evtchn_delivered_total";
        ];
      (* Both sides of the vif report, disambiguated by the side label. *)
      let sides =
        List.filter_map
          (fun (n, ls, _) ->
            if n = "kite_net_tx_packets_total" then List.assoc_opt "side" ls
            else None)
          (R.read r)
        |> List.sort_uniq String.compare
      in
      Alcotest.(check (list string)) "side labels" [ "backend"; "frontend" ]
        sides
  | rs -> Alcotest.failf "expected 1 registry, got %d" (List.length rs)

(* A fixed 20 s window that never reaches a result, so no run tears the
   machine down: the test ends with [teardown_all], after its
   assertions. *)
let test_backend_crash_alerts () =
  Fun.protect ~finally:Scenario.teardown_all @@ fun () ->
  let sink =
    with_sink (fun () ->
        let s = Scenario.storage ~flavor:Scenario.Kite () in
        let dev = Scenario.blockdev s in
        Scenario.when_blk_ready s (fun () ->
            dev.Kite_vfs.Blockdev.write ~sector:0 (Bytes.make 4096 'x'));
        Scenario.crash_and_restart_blk s ~flavor:Scenario.Kite
          ~at:(Time.sec 1) ();
        Kite_xen.Hypervisor.run_for s.Scenario.bhv (Time.sec 20))
  in
  match R.registries sink with
  | [ r ] ->
      check_bool "backend-state probe fired" true
        (List.exists
           (fun a -> a.R.alert_probe = "kite_backend_state")
           (R.alerts r));
      check_bool "alert is counted" true
        (match R.value r "kite_alerts_total" [] with
        | Some v -> v >= 1.
        | None -> false)
  | rs -> Alcotest.failf "expected 1 registry, got %d" (List.length rs)

let test_disabled_emits_nothing () =
  check_bool "no ambient sink" true (R.default () = None);
  let s = Scenario.storage ~flavor:Scenario.Kite () in
  let dev = Scenario.blockdev s in
  Testbed.run s.Scenario.bhv ~what:"I/O" ~within:(Time.sec 5) (fun finish ->
      Scenario.when_blk_ready s (fun () ->
          dev.Kite_vfs.Blockdev.write ~sector:0 (Bytes.make 4096 'q');
          finish ()));
  check_bool "no registry attached" true
    (s.Scenario.bctx.Kite_drivers.Xen_ctx.metrics = None);
  (* No registry on the machine either, so no Dom0 sampler and no
     scheduler series. *)
  check_bool "no machine registry" true
    (Kite_xen.Hypervisor.metrics_registry s.Scenario.bhv = None)

let suite =
  [
    ("instruments and misuse", `Quick, test_instruments);
    ("sampling, series, rate", `Quick, test_sampling_and_series);
    ("freeze keeps every read", `Quick, test_freeze);
    ("prometheus round-trip", `Quick, test_prometheus_roundtrip);
    ("probes edge-triggered", `Quick, test_probes_edge_triggered);
    ("stalled probe", `Quick, test_stalled_probe);
    ("storage scenario metered", `Quick, test_storage_scenario_metered);
    ("network scenario metered", `Quick, test_network_scenario_metered);
    ("backend crash raises alert", `Quick, test_backend_crash_alerts);
    ("disabled metrics emit nothing", `Quick, test_disabled_emits_nothing);
  ]
