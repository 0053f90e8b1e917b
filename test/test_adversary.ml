(* The adversary subsystem: one deterministic test per attack primitive
   (typed Guest_fault finding + quarantine escalation + zero impact on
   the co-hosted honest guest), the handshake-rejection paths, and a
   reduced seeded campaign (the 500-seed sweep runs under the @adversary
   alias via kite_ctl attack). *)

open Kite_sim
open Kite_xen
module Check = Kite_check.Check
module Report = Kite_check.Report
module Flight = Kite_flight.Flight
module Guest_fault = Kite_drivers.Guest_fault
module Quarantine = Kite_drivers.Quarantine
module Netback = Kite_drivers.Netback
module Blkback = Kite_drivers.Blkback
module Toolstack = Kite_drivers.Toolstack
module Scenario = Kite.Scenario
module Campaign = Kite_adversary.Campaign
module Evil_front = Kite_adversary.Evil_front

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let rule_count report rule = List.length (Report.by_rule report rule)

(* ------------------------------------------------------------------ *)
(* Network-side attack primitives                                      *)
(* ------------------------------------------------------------------ *)

type outcome = {
  o_findings : int;  (** findings under the class's checker rule *)
  o_level : int;  (** quarantine level of the hostile device *)
  o_rejected : bool;  (** handshake refused outright *)
  o_honest_ok : bool;  (** honest guest unaffected *)
  o_errors : int;  (** checker errors (detections are warnings) *)
}

(* One hostile vif (devid 1) next to the testbed's honest one (devid 0):
   run the volley, then measure detection, escalation and the honest
   guest's health (every ping must still complete). *)
let net_attack ~cls ~mode ~volley () =
  let report = Report.create () in
  Kite.Obs.run { Kite.Obs.none with check = Some report } (fun () ->
      let s = Scenario.network ~flavor:Scenario.Kite ~seed:7 ~num_queues:2 () in
      let hv = s.Scenario.hv and ctx = s.Scenario.ctx in
      let evil =
        Hypervisor.create_domain hv ~name:"evil" ~kind:Domain.Dom_u ~vcpus:1
          ~mem_mb:256
      in
      let victim = s.Scenario.domu.Domain.id in
      let evr = ref None in
      Hypervisor.spawn hv evil ~name:"evil-vif" (fun () ->
          Process.sleep (Time.ms 5);
          Toolstack.add_vif ctx ~backend:s.Scenario.dd ~frontend:evil ~devid:1
            ();
          let ev =
            Evil_front.create Vif ctx ~domain:evil ~backend:s.Scenario.dd
              ~devid:1 ~nq:2
          in
          evr := Some ev;
          Evil_front.handshake ev mode;
          if mode = Evil_front.Honest then begin
            Process.sleep (Time.ms 2);
            volley ev ~victim
          end);
      let pings_ok = ref 0 in
      Scenario.when_net_ready s (fun () ->
          for seq = 1 to 20 do
            (match
               Kite_net.Stack.ping s.Scenario.client_stack
                 ~dst:s.Scenario.guest_ip ~seq ()
             with
            | Some _ -> incr pings_ok
            | None -> ());
            Process.sleep (Time.ms 2)
          done);
      Hypervisor.run_for hv (Time.sec 1);
      (match !evr with Some ev -> Evil_front.cleanup ev | None -> ());
      let nb = Kite_drivers.Net_app.netback s.Scenario.net_app in
      let rejected = List.mem (evil.Domain.id, 1) (Netback.rejected nb) in
      let level =
        match
          List.find_opt
            (fun i ->
              Netback.frontend_domid i = evil.Domain.id && Netback.devid i = 1)
            (Netback.instances nb)
        with
        | Some i -> Quarantine.level (Netback.quarantine i)
        | None -> if rejected then 3 else 0
      in
      Scenario.teardown_all ();
      {
        o_findings = rule_count report (Guest_fault.rule cls);
        o_level = level;
        o_rejected = rejected;
        o_honest_ok = !pings_ok = 20;
        o_errors = Report.errors report;
      })

let assert_outcome ?(min_level = 1) ?(rejected = false) name o =
  check_bool (name ^ ": detected as a typed guest fault") true
    (o.o_findings >= 1);
  check_bool
    (Printf.sprintf "%s: quarantine level %d >= %d" name o.o_level min_level)
    true
    (o.o_level >= min_level);
  check_bool (name ^ ": handshake rejection") rejected o.o_rejected;
  check_bool (name ^ ": honest guest unaffected") true o.o_honest_ok;
  check_int (name ^ ": zero checker errors") 0 o.o_errors

let nop _ev ~victim:_ = ()

let test_net_ring_index () =
  net_attack ~cls:Guest_fault.Ring_index ~mode:Evil_front.Honest
    ~volley:(fun ev ~victim:_ -> Evil_front.attack_ring_index ev)
    ()
  (* Severe: the device state itself is untrustworthy — straight to
     offline, no ladder. *)
  |> assert_outcome ~min_level:3 "ring-index"

let test_net_bad_gref () =
  net_attack ~cls:Guest_fault.Bad_gref ~mode:Evil_front.Honest
    ~volley:(fun ev ~victim:_ -> Evil_front.attack_bad_gref ev)
    ()
  |> assert_outcome ~min_level:3 "bad-gref"

let test_net_foreign_gref () =
  net_attack ~cls:Guest_fault.Foreign_gref ~mode:Evil_front.Honest
    ~volley:(fun ev ~victim -> Evil_front.attack_foreign_gref ev ~victim)
    ()
  |> assert_outcome ~min_level:3 "foreign-gref"

let test_net_bad_length () =
  net_attack ~cls:Guest_fault.Bad_length ~mode:Evil_front.Honest
    ~volley:(fun ev ~victim:_ -> Evil_front.attack_bad_length ev)
    ()
  |> assert_outcome ~min_level:3 "bad-length"

let test_net_replay () =
  net_attack ~cls:Guest_fault.Replay ~mode:Evil_front.Honest
    ~volley:(fun ev ~victim:_ -> Evil_front.attack_replay ev)
    ()
  |> assert_outcome ~min_level:3 "replay"

let test_net_slot_reuse () =
  net_attack ~cls:Guest_fault.Slot_reuse ~mode:Evil_front.Honest
    ~volley:(fun ev ~victim:_ -> Evil_front.attack_slot_reuse ev)
    ()
  |> assert_outcome ~min_level:1 "slot-reuse"

let test_net_xenbus_jump () =
  net_attack ~cls:Guest_fault.Xenbus_jump ~mode:Evil_front.Honest
    ~volley:(fun ev ~victim:_ -> Evil_front.attack_xenbus_jump ev)
    ()
  (* The guard is unwatched at detach, so the ladder plateaus at 2. *)
  |> assert_outcome ~min_level:2 "xenbus-jump"

let test_net_evtchn_storm () =
  net_attack ~cls:Guest_fault.Evtchn_storm ~mode:Evil_front.Honest
    ~volley:(fun ev ~victim:_ -> Evil_front.attack_storm ev ~count:200)
    ()
  |> assert_outcome ~min_level:1 "evtchn-storm"

let test_net_bad_ring_ref () =
  net_attack ~cls:Guest_fault.Bad_ring_ref ~mode:Evil_front.Forged_ring_ref
    ~volley:nop ()
  |> assert_outcome ~min_level:3 ~rejected:true "bad-ring-ref"

let test_net_bad_port () =
  net_attack ~cls:Guest_fault.Bad_port ~mode:Evil_front.Hijacked_port
    ~volley:nop ()
  |> assert_outcome ~min_level:3 ~rejected:true "bad-port"

let test_net_xenstore_abuse () =
  net_attack ~cls:Guest_fault.Xenstore_abuse ~mode:Evil_front.Garbage_keys
    ~volley:nop ()
  |> assert_outcome ~min_level:3 ~rejected:true "xenstore-abuse"

(* ------------------------------------------------------------------ *)
(* Storage-side attack primitives                                      *)
(* ------------------------------------------------------------------ *)

(* Same shape for a hostile vbd; the honest guest writes a pattern far
   from the attacker's scratch sectors and must read it back intact. *)
let blk_attack ?(on_report = ignore) ~cls ~mode ~volley () =
  let report = Report.create () in
  on_report report;
  Kite.Obs.run { Kite.Obs.none with check = Some report } (fun () ->
      let s = Scenario.storage ~flavor:Scenario.Kite ~num_queues:2 () in
      let hv = s.Scenario.bhv and ctx = s.Scenario.bctx in
      let evil =
        Hypervisor.create_domain hv ~name:"evil" ~kind:Domain.Dom_u ~vcpus:1
          ~mem_mb:256
      in
      let victim = s.Scenario.bdomu.Domain.id in
      let evr = ref None in
      Hypervisor.spawn hv evil ~name:"evil-vbd" (fun () ->
          Process.sleep (Time.ms 5);
          Toolstack.add_vbd ctx ~backend:s.Scenario.bdd ~frontend:evil ~devid:1
            ();
          let ev =
            Evil_front.create Vbd ctx ~domain:evil ~backend:s.Scenario.bdd
              ~devid:1 ~nq:2
          in
          evr := Some ev;
          Evil_front.handshake ev mode;
          if mode = Evil_front.Honest then begin
            Process.sleep (Time.ms 2);
            volley ev ~victim
          end);
      let honest_ok = ref false in
      Scenario.when_blk_ready s (fun () ->
          let payload = Bytes.make (8 * 512) 'K' in
          Kite_drivers.Blkfront.write s.Scenario.blkfront ~sector:30_000
            payload;
          Process.sleep (Time.ms 60);
          let got =
            Kite_drivers.Blkfront.read s.Scenario.blkfront ~sector:30_000
              ~count:8
          in
          honest_ok := Bytes.equal got payload);
      Hypervisor.run_for hv (Time.sec 1);
      (match !evr with Some ev -> Evil_front.cleanup ev | None -> ());
      let bb = Kite_drivers.Blk_app.blkback s.Scenario.blk_app in
      let rejected = List.mem (evil.Domain.id, 1) (Blkback.rejected bb) in
      let level =
        match
          List.find_opt
            (fun i ->
              Blkback.frontend_domid i = evil.Domain.id && Blkback.devid i = 1)
            (Blkback.instances bb)
        with
        | Some i -> Quarantine.level (Blkback.quarantine i)
        | None -> if rejected then 3 else 0
      in
      Scenario.teardown_all ();
      {
        o_findings = rule_count report (Guest_fault.rule cls);
        o_level = level;
        o_rejected = rejected;
        o_honest_ok = !honest_ok;
        o_errors = Report.errors report;
      })

let test_blk_ring_index () =
  blk_attack ~cls:Guest_fault.Ring_index ~mode:Evil_front.Honest
    ~volley:(fun ev ~victim:_ -> Evil_front.attack_ring_index ev)
    ()
  |> assert_outcome ~min_level:3 "blk ring-index"

let test_blk_bad_gref () =
  blk_attack ~cls:Guest_fault.Bad_gref ~mode:Evil_front.Honest
    ~volley:(fun ev ~victim:_ -> Evil_front.attack_bad_gref ev)
    ()
  |> assert_outcome ~min_level:3 "blk bad-gref"

let test_blk_foreign_gref () =
  blk_attack ~cls:Guest_fault.Foreign_gref ~mode:Evil_front.Honest
    ~volley:(fun ev ~victim -> Evil_front.attack_foreign_gref ev ~victim)
    ()
  |> assert_outcome ~min_level:3 "blk foreign-gref"

let test_blk_bad_length () =
  blk_attack ~cls:Guest_fault.Bad_length ~mode:Evil_front.Honest
    ~volley:(fun ev ~victim:_ -> Evil_front.attack_bad_length ev)
    ()
  |> assert_outcome ~min_level:3 "blk bad-length"

let test_blk_bad_segment () =
  blk_attack ~cls:Guest_fault.Bad_segment ~mode:Evil_front.Honest
    ~volley:(fun ev ~victim:_ -> Evil_front.attack_bad_segment ev)
    ()
  |> assert_outcome ~min_level:3 "blk bad-segment"

let test_blk_replay () =
  blk_attack ~cls:Guest_fault.Replay ~mode:Evil_front.Honest
    ~volley:(fun ev ~victim:_ -> Evil_front.attack_replay ev)
    ()
  |> assert_outcome ~min_level:3 "blk replay"

(* A reference named twice, or granted to a third domain, is refused at
   validation: before, blkback mapped the first twice and unmapped it
   twice, and failed to map the second, and either stopped the
   simulation with a Grant_error. *)
let test_blk_unmappable how name () =
  blk_attack ~cls:Guest_fault.Bad_gref ~mode:Evil_front.Honest
    ~volley:(fun ev ~victim:_ -> Evil_front.attack_unmappable_gref ev how)
    ()
  |> assert_outcome ~min_level:1 name

(* A grant ended after its request's checks but before its map is a
   typed fault too, not a Grant_error at the map. *)
let test_blk_end_before_map () =
  let report = ref None in
  blk_attack ~cls:Guest_fault.Bad_gref ~mode:Evil_front.Honest
    ~volley:(fun ev ~victim:_ -> Evil_front.attack_end_before_map ev)
    ~on_report:(fun r -> report := Some r)
    ()
  |> assert_outcome ~min_level:2 "blk end before map";
  let needle = "revoked before it was mapped" in
  let mentions m =
    let n = String.length needle in
    let rec from k =
      k + n <= String.length m && (String.sub m k n = needle || from (k + 1))
    in
    from 0
  in
  let revoked =
    List.filter
      (fun f -> mentions f.Report.message)
      (Report.by_rule (Option.get !report)
         (Guest_fault.rule Guest_fault.Bad_gref))
  in
  check_int "the ended grant is found at the map" 1 (List.length revoked)

let test_blk_slot_reuse () =
  blk_attack ~cls:Guest_fault.Slot_reuse ~mode:Evil_front.Honest
    ~volley:(fun ev ~victim:_ -> Evil_front.attack_slot_reuse ev)
    ()
  |> assert_outcome ~min_level:1 "blk slot-reuse"

let test_blk_xenbus_jump () =
  blk_attack ~cls:Guest_fault.Xenbus_jump ~mode:Evil_front.Honest
    ~volley:(fun ev ~victim:_ -> Evil_front.attack_xenbus_jump ev)
    ()
  |> assert_outcome ~min_level:2 "blk xenbus-jump"

let test_blk_evtchn_storm () =
  blk_attack ~cls:Guest_fault.Evtchn_storm ~mode:Evil_front.Honest
    ~volley:(fun ev ~victim:_ -> Evil_front.attack_storm ev ~count:200)
    ()
  |> assert_outcome ~min_level:1 "blk evtchn-storm"

let test_blk_bad_ring_ref () =
  blk_attack ~cls:Guest_fault.Bad_ring_ref ~mode:Evil_front.Forged_ring_ref
    ~volley:(fun _ev ~victim:_ -> ())
    ()
  |> assert_outcome ~min_level:3 ~rejected:true "blk bad-ring-ref"

let test_blk_bad_port () =
  blk_attack ~cls:Guest_fault.Bad_port ~mode:Evil_front.Hijacked_port
    ~volley:(fun _ev ~victim:_ -> ())
    ()
  |> assert_outcome ~min_level:3 ~rejected:true "blk bad-port"

let test_blk_xenstore_abuse () =
  blk_attack ~cls:Guest_fault.Xenstore_abuse ~mode:Evil_front.Garbage_keys
    ~volley:(fun _ev ~victim:_ -> ())
    ()
  |> assert_outcome ~min_level:3 ~rejected:true "blk xenstore-abuse"

(* ------------------------------------------------------------------ *)
(* Seeded campaigns (reduced; the 500-seed sweep is the @adversary gate) *)
(* ------------------------------------------------------------------ *)

let assert_campaign r =
  let name = Printf.sprintf "campaign seed %d" r.Campaign.seed in
  check_int (name ^ ": zero checker errors") 0 r.Campaign.checker_errors;
  Alcotest.(check (list string)) (name ^ ": no missed class") [] r.Campaign.missed;
  Alcotest.(check (list string))
    (name ^ ": every device quarantined")
    [] r.Campaign.unquarantined;
  check_int (name ^ ": handshake rejections") 3 r.Campaign.handshake_rejections;
  check_bool (name ^ ": honest p99 within SLO") true r.Campaign.honest_ok;
  check_bool (name ^ ": an incident was frozen") true (r.Campaign.incidents >= 1);
  check_bool (name ^ ": campaign oracle") true r.Campaign.ok

let test_campaigns () =
  (* One of each flavor: odd = network, even = storage. *)
  List.iter (fun seed -> assert_campaign (Campaign.run ~seed ())) [ 1; 2 ]

(* kite_ctl attack --class: a campaign restricted to one class injects,
   detects and quarantines exactly that class, on either backend. *)
let test_campaign_only () =
  List.iter
    (fun (seed, target, cls) ->
      let r = Campaign.run ~only:[ cls ] ~seed () in
      let name = Guest_fault.slug cls in
      check_bool (name ^ ": target") true (r.Campaign.target = target);
      Alcotest.(check (list string))
        (name ^ ": the one class injected")
        [ name ]
        (List.map
           (fun c -> Guest_fault.slug c.Campaign.attack)
           r.Campaign.classes);
      List.iter
        (fun c ->
          check_bool (name ^ ": detected") true c.Campaign.detected;
          check_bool (name ^ ": quarantined") true c.Campaign.quarantined)
        r.Campaign.classes;
      check_bool (name ^ ": campaign oracle") true r.Campaign.ok)
    [
      (1, Campaign.Net, Guest_fault.Replay);
      (2, Campaign.Blk, Guest_fault.Bad_segment);
    ]

let suite =
  [
    ("net: ring index", `Quick, test_net_ring_index);
    ("net: bad gref", `Quick, test_net_bad_gref);
    ("net: foreign gref", `Quick, test_net_foreign_gref);
    ("net: bad length", `Quick, test_net_bad_length);
    ("net: replay", `Quick, test_net_replay);
    ("net: slot reuse", `Quick, test_net_slot_reuse);
    ("net: xenbus jump", `Quick, test_net_xenbus_jump);
    ("net: evtchn storm", `Quick, test_net_evtchn_storm);
    ("net: bad ring ref", `Quick, test_net_bad_ring_ref);
    ("net: bad port", `Quick, test_net_bad_port);
    ("net: xenstore abuse", `Quick, test_net_xenstore_abuse);
    ("blk: ring index", `Quick, test_blk_ring_index);
    ("blk: bad gref", `Quick, test_blk_bad_gref);
    ("blk: foreign gref", `Quick, test_blk_foreign_gref);
    ("blk: bad length", `Quick, test_blk_bad_length);
    ("blk: bad segment", `Quick, test_blk_bad_segment);
    ("blk: replay", `Quick, test_blk_replay);
    ("blk: gref twice in one request", `Quick,
      test_blk_unmappable `Two_segments "blk gref twice in one request");
    ("blk: gref twice in one drain", `Quick,
      test_blk_unmappable `Two_requests "blk gref twice in one drain");
    ("blk: descriptor gref twice", `Quick,
      test_blk_unmappable `Two_descriptors "blk descriptor gref twice");
    ("blk: gref granted to another domain", `Quick,
      test_blk_unmappable `Other_grantee "blk gref granted to another domain");
    ("blk: grant ended before its map", `Quick, test_blk_end_before_map);
    ("blk: slot reuse", `Quick, test_blk_slot_reuse);
    ("blk: xenbus jump", `Quick, test_blk_xenbus_jump);
    ("blk: evtchn storm", `Quick, test_blk_evtchn_storm);
    ("blk: bad ring ref", `Quick, test_blk_bad_ring_ref);
    ("blk: bad port", `Quick, test_blk_bad_port);
    ("blk: xenstore abuse", `Quick, test_blk_xenstore_abuse);
    ("seeded campaigns", `Slow, test_campaigns);
    ("campaign restricted to one class", `Quick, test_campaign_only);
  ]
