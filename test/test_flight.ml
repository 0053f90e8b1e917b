(* kite_flight: ring bounds and drop accounting, trigger lifecycle and
   suppression, incident sealing (metrics delta, xenstore snapshot, SLO
   verdicts), the end-of-run audit, layer taps, SLO window arithmetic,
   and a seeded stress run over random record streams. *)

open Kite_sim
open Kite
module Flight = Kite_flight.Flight
module Slo = Kite_flight.Slo
module Registry = Kite_metrics.Registry
module Report = Kite_check.Report

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A recorder on a hand-cranked clock. *)
let make ?limit ?post_limit () =
  let now = ref 0 in
  let fl =
    Flight.create ?limit ?post_limit ~name:"unit" ~now:(fun () -> !now) ()
  in
  (fl, now)

let push fl ~at:_ k = Flight.record fl ~layer:"t" ~kind:"k" ~key:k ~msg:""

(* ------------------------------------------------------------------ *)
(* Ring discipline                                                     *)
(* ------------------------------------------------------------------ *)

let test_ring_bounds () =
  let fl, now = make ~limit:8 () in
  check_int "empty" 0 (List.length (Flight.records fl));
  for i = 1 to 20 do
    now := i;
    push fl ~at:i (string_of_int i)
  done;
  let rs = Flight.records fl in
  check_int "capped at limit" 8 (List.length rs);
  check_int "overwrites counted" 12 (Flight.dropped fl);
  (* Oldest-first, and the survivors are the most recent 8. *)
  Alcotest.(check (list int))
    "most recent records, oldest first"
    [ 13; 14; 15; 16; 17; 18; 19; 20 ]
    (List.map (fun r -> r.Flight.r_at) rs)

(* ------------------------------------------------------------------ *)
(* Triggers, suppression, sealing                                      *)
(* ------------------------------------------------------------------ *)

let test_trigger_lifecycle () =
  let fl, now = make ~limit:16 ~post_limit:3 () in
  for i = 1 to 5 do
    now := i;
    push fl ~at:i "pre"
  done;
  check_bool "no incident yet" true (Flight.open_incident fl = None);
  now := 6;
  Flight.trigger fl Flight.Manual ~reason:"unit";
  let inc =
    match Flight.open_incident fl with
    | Some i -> i
    | None -> Alcotest.fail "trigger opened no incident"
  in
  check_bool "incident open" true (Flight.incident_open inc);
  check_int "pre-trigger ring frozen" 5 (List.length (Flight.incident_pre inc));
  (* A second trigger while open is evidence, not a new snapshot. *)
  Flight.trigger fl Flight.Crash ~reason:"again";
  check_int "still one incident" 1 (List.length (Flight.incidents fl));
  check_bool "suppression recorded" true
    (List.exists
       (fun r -> r.Flight.r_kind = "trigger-suppressed")
       (Flight.records fl));
  (* Post records are bounded by post_limit; overflow is counted. *)
  for i = 7 to 12 do
    now := i;
    push fl ~at:i "post"
  done;
  now := 13;
  Flight.seal_all fl;
  check_bool "sealed" true (not (Flight.incident_open inc));
  check_bool "nothing open" true (Flight.open_incident fl = None);
  check_int "post capped" 3 (List.length (Flight.incident_post inc));
  check_bool "post overflow counted" true (Flight.incident_truncated inc > 0);
  check_int "sealed at" 13 (Flight.incident_sealed_at inc);
  (* The timeline is pre @ post and monotone in simulated time. *)
  let tl = Flight.incident_timeline inc in
  ignore
    (List.fold_left
       (fun prev r ->
         check_bool "timeline monotone" true (r.Flight.r_at >= prev);
         r.Flight.r_at)
       0 tl);
  (* Records after the seal touch the ring, not the sealed incident. *)
  now := 14;
  push fl ~at:14 "late";
  check_int "sealed post unchanged" 3 (List.length (Flight.incident_post inc));
  (* The audit flags the truncation as a warning, not an error. *)
  let report = Report.create () in
  Flight.audit fl report;
  check_int "no audit errors" 0 (Report.errors report);
  check_bool "truncation warned" true (Report.warnings report > 0)

let test_delta_store_and_finding_trigger () =
  let fl, now = make () in
  let reg = Registry.create ~name:"unit" () in
  Flight.tap_metrics fl reg;
  Flight.set_store_source fl (fun () -> [ ("/local/domain/1/name", "dd") ]);
  let c = Registry.counter reg "unit_ops_total" [] in
  Registry.inc c;
  (* A checker Error finding fires the Finding trigger. *)
  let report = Report.create () in
  Flight.tap_report fl report;
  now := 10;
  Report.add report
    {
      Report.severity = Report.Error;
      subsystem = "ring";
      rule = "unit-rule";
      provenance = "unit";
      message = "boom";
    };
  let inc =
    match Flight.open_incident fl with
    | Some i -> i
    | None -> Alcotest.fail "Error finding did not trigger"
  in
  check_bool "finding recorded" true
    (List.exists
       (fun r -> r.Flight.r_layer = "check")
       (Flight.records fl));
  (* The store snapshot was captured at the trigger instant. *)
  Alcotest.(check (list (pair string string)))
    "store snapshot" [ ("/local/domain/1/name", "dd") ]
    (Flight.incident_store inc);
  (* Counters that move between trigger and seal land in the delta. *)
  Registry.inc c;
  Registry.inc c;
  now := 20;
  Flight.seal_all fl;
  match Flight.incident_delta inc with
  | [ ("unit_ops_total", [], v0, v1) ] ->
      Alcotest.(check (float 1e-9)) "before" 1.0 v0;
      Alcotest.(check (float 1e-9)) "after" 3.0 v1
  | d -> Alcotest.failf "unexpected delta (%d rows)" (List.length d)

let test_audit_orders_and_unsealed () =
  let fl, now = make () in
  now := 100;
  push fl ~at:100 "a";
  now := 50;
  (* A clock running backwards corrupts the black box: audit error. *)
  push fl ~at:50 "b";
  Flight.trigger fl Flight.Manual ~reason:"left open";
  let report = Report.create () in
  Flight.audit fl report;
  check_bool "timeline disorder is an error" true (Report.errors report > 0);
  check_bool "unsealed incident warned" true (Report.warnings report > 0)

(* ------------------------------------------------------------------ *)
(* SLOs                                                                *)
(* ------------------------------------------------------------------ *)

let test_slo_window () =
  let reg = Registry.create ~name:"unit" () in
  let h = Registry.histogram reg ~base:1.0 ~factor:2.0 "unit_lat_ns" [] in
  Alcotest.check_raises "quantile range policed"
    (Invalid_argument "Slo.create: quantile must lie in (0, 1)") (fun () ->
      ignore
        (Slo.create ~name:"bad" ~metric:"unit_lat_ns" ~quantile:99.0
           ~threshold:1.0 reg));
  let slo =
    Slo.create ~name:"p50-low" ~metric:"unit_lat_ns" ~quantile:0.5
      ~threshold:2.0 reg
  in
  (* No data: count 0, no actual, full compliance, zero burn, met. *)
  let e0 = Slo.evaluate slo ~at:10 in
  check_int "empty count" 0 e0.Slo.ev_count;
  check_bool "empty actual is nan" true (Float.is_nan e0.Slo.ev_actual);
  Alcotest.(check (float 1e-9)) "empty compliance" 1.0 e0.Slo.ev_compliance;
  Alcotest.(check (float 1e-9)) "empty burn" 0.0 e0.Slo.ev_burn;
  check_bool "empty met" true e0.Slo.ev_met;
  (* Ten fast observations before arming are excluded by the window. *)
  for _ = 1 to 10 do
    Registry.observe h 1.5
  done;
  Slo.arm slo ~at:100;
  let e1 = Slo.evaluate slo ~at:200 in
  check_int "pre-arm observations excluded" 0 e1.Slo.ev_count;
  (* Ten slow observations after arming: the window sees only them. *)
  for _ = 1 to 10 do
    Registry.observe h 100.0
  done;
  let e2 = Slo.evaluate slo ~at:300 in
  check_int "window count" 10 e2.Slo.ev_count;
  check_bool "actual above threshold" true (e2.Slo.ev_actual > 2.0);
  Alcotest.(check (float 1e-9)) "compliance zero" 0.0 e2.Slo.ev_compliance;
  Alcotest.(check (float 1e-9)) "burn = 1/(1-q)" 2.0 e2.Slo.ev_burn;
  check_bool "missed" true (not e2.Slo.ev_met);
  check_int "window from" 100 e2.Slo.ev_from;
  check_int "window to" 300 e2.Slo.ev_to

(* A window whose quantile lands exactly on the threshold spends the
   error budget exactly (burn 1.0) but still meets the promise — the
   contract is [actual <= threshold], not strict.  Bucket geometry is
   chosen so the interpolated quantile is bit-exact: ten observations
   of 1.5 in the [1, 2) bucket interpolate to precisely 1.5. *)
let test_slo_exactly_at_target () =
  let reg = Registry.create ~name:"unit" () in
  let h = Registry.histogram reg ~base:1.0 ~factor:2.0 "unit_lat_ms" [] in
  let at_target =
    Slo.create ~name:"at" ~metric:"unit_lat_ms" ~quantile:0.5 ~threshold:1.5
      reg
  in
  let under =
    Slo.create ~name:"under" ~metric:"unit_lat_ms" ~quantile:0.5
      ~threshold:1.25 reg
  in
  Slo.arm at_target ~at:0;
  Slo.arm under ~at:0;
  for _ = 1 to 10 do
    Registry.observe h 1.5
  done;
  let e = Slo.evaluate at_target ~at:50 in
  Alcotest.(check (float 1e-9)) "quantile lands on threshold" 1.5 e.Slo.ev_actual;
  check_bool "exactly at target still met" true e.Slo.ev_met;
  Alcotest.(check (float 1e-9)) "budget spent exactly" 1.0 e.Slo.ev_burn;
  Alcotest.(check (float 1e-9)) "half the window over" 0.5 e.Slo.ev_compliance;
  let e' = Slo.evaluate under ~at:50 in
  check_bool "a hair under target misses" true (not e'.Slo.ev_met);
  Alcotest.(check (float 1e-9)) "overspent budget" 1.5 e'.Slo.ev_burn

(* An armed window that never sees an observation is vacuously met —
   even when the histogram carries a miserable history from before the
   arm.  Burn must read 0, not echo the stale distribution. *)
let test_slo_empty_window () =
  let reg = Registry.create ~name:"unit" () in
  let h = Registry.histogram reg ~base:1.0 ~factor:2.0 "unit_lat_ms" [] in
  let slo =
    Slo.create ~name:"p99" ~metric:"unit_lat_ms" ~quantile:0.99 ~threshold:2.0
      reg
  in
  for _ = 1 to 5 do
    Registry.observe h 100.0
  done;
  Slo.arm slo ~at:1000;
  let e = Slo.evaluate slo ~at:2000 in
  check_int "empty window count" 0 e.Slo.ev_count;
  check_bool "empty window actual is nan" true (Float.is_nan e.Slo.ev_actual);
  Alcotest.(check (float 1e-9)) "empty window compliance" 1.0 e.Slo.ev_compliance;
  Alcotest.(check (float 1e-9)) "empty window burn" 0.0 e.Slo.ev_burn;
  check_bool "empty window met" true e.Slo.ev_met;
  check_int "window from" 1000 e.Slo.ev_from;
  check_int "window to" 2000 e.Slo.ev_to

(* Re-arming is the counter-reset recovery path: the baseline snapshot
   is retaken, so a blown window's observations stop counting against
   the new one and the burn rate starts over from zero. *)
let test_slo_rearm_resets_burn () =
  let reg = Registry.create ~name:"unit" () in
  let h = Registry.histogram reg ~base:1.0 ~factor:2.0 "unit_lat_ms" [] in
  let slo =
    Slo.create ~name:"p50" ~metric:"unit_lat_ms" ~quantile:0.5 ~threshold:2.0
      reg
  in
  Slo.arm slo ~at:0;
  for _ = 1 to 10 do
    Registry.observe h 100.0
  done;
  let e0 = Slo.evaluate slo ~at:100 in
  check_bool "blown window missed" true (not e0.Slo.ev_met);
  Alcotest.(check (float 1e-9)) "blown window burn" 2.0 e0.Slo.ev_burn;
  Slo.arm slo ~at:100;
  let e1 = Slo.evaluate slo ~at:150 in
  check_int "re-arm empties the window" 0 e1.Slo.ev_count;
  Alcotest.(check (float 1e-9)) "re-arm resets burn" 0.0 e1.Slo.ev_burn;
  check_bool "re-armed window met" true e1.Slo.ev_met;
  for _ = 1 to 10 do
    Registry.observe h 1.5
  done;
  let e2 = Slo.evaluate slo ~at:200 in
  check_int "only post-re-arm observations counted" 10 e2.Slo.ev_count;
  check_bool "recovered window met" true e2.Slo.ev_met;
  Alcotest.(check (float 1e-9)) "recovered burn" 0.0 e2.Slo.ev_burn

(* ------------------------------------------------------------------ *)
(* Scenario integration: crash -> incident snapshot                    *)
(* ------------------------------------------------------------------ *)

let test_crash_freezes_incident () =
  let fsink = Flight.sink () in
  Kite.Obs.run { Kite.Obs.none with flight = Some fsink } (fun () ->
      let s = Scenario.storage ~flavor:Scenario.Kite () in
      let restored = ref false in
      Scenario.run s.Scenario.bhv ~what:"crash incident" (fun finish ->
          Scenario.when_blk_ready s (fun () ->
              Scenario.crash_and_restart_blk s ~flavor:Scenario.Kite
                ~at:(Time.ms 2)
                ~on_restored:(fun ~downtime:_ -> restored := true)
                ();
              let front = s.Scenario.blkfront in
              for k = 0 to 31 do
                Kite_drivers.Blkfront.write front ~sector:k
                  (Bytes.make Kite_drivers.Blkfront.sector_size 'x')
              done;
              while not !restored do
                Process.sleep (Time.ms 1)
              done;
              finish ()));
      check_bool "recovered" true !restored;
      let fl =
        match Flight.flights fsink with
        | [ fl ] -> fl
        | fls -> Alcotest.failf "expected 1 recorder, got %d" (List.length fls)
      in
      Flight.seal_all fl;
      let inc =
        match Flight.incidents fl with
        | [ inc ] -> inc
        | incs ->
            Alcotest.failf "expected 1 incident, got %d" (List.length incs)
      in
      check_bool "crash trigger" true
        (Flight.incident_trigger inc = Flight.Crash);
      let kinds =
        List.map (fun r -> r.Flight.r_kind) (Flight.incident_timeline inc)
      in
      List.iter
        (fun k ->
          check_bool (k ^ " in timeline") true (List.mem k kinds))
        [ "crash"; "restart"; "mark" ];
      (* The store snapshot ran before Xenstore.rm: the doomed driver
         domain's backend subtree is still visible. *)
      let has_backend_path =
        List.exists
          (fun (p, _) ->
            let needle = "/backend/vbd/" in
            let np = String.length p and nn = String.length needle in
            let rec go i =
              i + nn <= np && (String.sub p i nn = needle || go (i + 1))
            in
            go 0)
          (Flight.incident_store inc)
      in
      check_bool "doomed domain's backend in store snapshot" true
        has_backend_path;
      (* And the recorder's own audit is clean. *)
      let report = Report.create () in
      Flight.audit fl report;
      check_int "audit clean" 0 (Report.errors report))

(* ------------------------------------------------------------------ *)
(* Seeded stress: random streams keep every structural invariant       *)
(* ------------------------------------------------------------------ *)

let test_seeded_stress () =
  let rng = Random.State.make [| 0xf11657 |] in
  for _round = 1 to 20 do
    let limit = 1 + Random.State.int rng 64 in
    let post_limit = 1 + Random.State.int rng 8 in
    let fl, now = make ~limit ~post_limit () in
    let pushed = ref 0 and triggers = ref 0 in
    let steps = 200 + Random.State.int rng 800 in
    for _ = 1 to steps do
      now := !now + Random.State.int rng 1000;
      match Random.State.int rng 20 with
      | 0 ->
          (* Every trigger — suppressed or not — leaves one ring record. *)
          incr triggers;
          Flight.trigger fl Flight.Manual ~reason:"stress"
      | 1 -> Flight.seal_all fl
      | _ ->
          incr pushed;
          push fl ~at:!now "s"
    done;
    Flight.seal_all fl;
    let n = List.length (Flight.records fl) in
    check_bool "ring bounded" true (n <= limit);
    check_int "drops account for every record" (!pushed + !triggers)
      (n + Flight.dropped fl);
    List.iter
      (fun inc ->
        check_bool "every incident sealed" true
          (not (Flight.incident_open inc));
        check_bool "post bounded" true
          (List.length (Flight.incident_post inc) <= post_limit))
      (Flight.incidents fl);
    let report = Report.create () in
    Flight.audit fl report;
    check_int "stress audit clean" 0 (Report.errors report)
  done

let test_json_export () =
  let fl, now = make () in
  push fl ~at:0 "a\"b";
  now := 5;
  Flight.trigger fl Flight.Manual ~reason:"json";
  Flight.seal_all fl;
  let js = Flight.to_json [ fl ] in
  List.iter
    (fun needle ->
      let nh = String.length js and nn = String.length needle in
      let rec go i =
        i + nn <= nh && (String.sub js i nn = needle || go (i + 1))
      in
      check_bool ("json contains " ^ needle) true (go 0))
    [ "\"incidents\""; "\"timeline\""; "\"a\\\"b\""; "\"manual\"" ]

let suite =
  [
    ("ring bounds and drops", `Quick, test_ring_bounds);
    ("trigger lifecycle", `Quick, test_trigger_lifecycle);
    ("delta, store, finding trigger", `Quick, test_delta_store_and_finding_trigger);
    ("audit orders and unsealed", `Quick, test_audit_orders_and_unsealed);
    ("slo window arithmetic", `Quick, test_slo_window);
    ("slo exactly at target", `Quick, test_slo_exactly_at_target);
    ("slo empty window", `Quick, test_slo_empty_window);
    ("slo re-arm resets burn", `Quick, test_slo_rearm_resets_burn);
    ("crash freezes incident", `Quick, test_crash_freezes_incident);
    ("seeded stress", `Quick, test_seeded_stress);
    ("json export", `Quick, test_json_export);
  ]
