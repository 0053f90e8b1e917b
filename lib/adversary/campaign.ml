open Kite_sim
open Kite_xen
open Kite_drivers
module Report = Kite_check.Report
module Flight = Kite_flight.Flight
module Scenario = Kite.Scenario
module Summary = Kite_stats.Summary

(* A seeded byzantine campaign: one testbed, one honest guest serving
   real load, one malicious guest with one hostile device per attack
   class, fired at randomized times.  The oracle is threefold — every
   attack detected as a typed finding, every hostile device quarantined
   (or its handshake rejected outright), and the honest guest's tail
   latency still inside its SLO.  Checker *errors* must stay at zero:
   detections are warnings; an error means the backend itself broke. *)

type target = Net | Blk

let target_name = function Net -> "net" | Blk -> "blk"

type class_result = {
  attack : Guest_fault.attack;
  devid : int;
  detected : bool;  (** a finding under the class's checker rule *)
  quarantined : bool;  (** escalated to level >= 1, or handshake-rejected *)
  rejected : bool;  (** refused at the handshake, never served *)
  level : int;  (** quarantine level reached (3 when rejected) *)
}

type result = {
  seed : int;
  target : target;
  queues : int;  (** honest guest's negotiated queue count *)
  classes : class_result list;
  missed : string list;  (** slugs with no finding *)
  unquarantined : string list;  (** slugs whose device kept serving *)
  handshake_rejections : int;
  checker_errors : int;
  checker_warnings : int;
  incidents : int;  (** flight-recorder incidents frozen *)
  honest_samples : int;
  honest_p99_us : float;
  slo_us : float;
  honest_ok : bool;
  ok : bool;
}

let net_classes : Guest_fault.attack list =
  [
    Ring_index;
    Bad_gref;
    Foreign_gref;
    Bad_length;
    Replay;
    Slot_reuse;
    Xenbus_jump;
    Evtchn_storm;
    Bad_ring_ref;
    Bad_port;
    Xenstore_abuse;
  ]

let blk_classes : Guest_fault.attack list = net_classes @ [ Bad_segment ]

let filter_only only classes =
  match only with
  | None -> classes
  | Some l -> List.filter (fun c -> List.mem c l) classes

(* p99 over microsecond samples; an empty sample set fails the SLO. *)
let p99 = function [] -> infinity | samples -> Summary.percentile samples 99.0

let evaluate ~seed ~target ~queues ~classes ~errors ~warnings ~incidents
    ~samples ~slo_us =
  let missed =
    List.filter_map
      (fun c -> if c.detected then None else Some (Guest_fault.slug c.attack))
      classes
  in
  let unquarantined =
    List.filter_map
      (fun c -> if c.quarantined then None else Some (Guest_fault.slug c.attack))
      classes
  in
  let honest_p99_us = p99 samples in
  let honest_ok = honest_p99_us <= slo_us in
  {
    seed;
    target;
    queues;
    classes;
    missed;
    unquarantined;
    handshake_rejections =
      List.length (List.filter (fun c -> c.rejected) classes);
    checker_errors = errors;
    checker_warnings = warnings;
    incidents;
    honest_samples = List.length samples;
    honest_p99_us;
    slo_us;
    honest_ok;
    ok =
      errors = 0 && missed = [] && unquarantined = [] && honest_ok
      && incidents >= 1;
  }

(* ------------------------------------------------------------------ *)
(* Targets                                                             *)
(* ------------------------------------------------------------------ *)

(* The testbed side of a campaign, once built: where the attacker aims,
   the honest guest's load, and what the backend decided about each
   hostile device. *)
type testbed = {
  hv : Hypervisor.t;
  ctx : Xen_ctx.t;
  dd : Domain.t;
  victim : int;  (** the honest guest's domid *)
  honest_load : (float -> unit) -> unit;
      (** start the honest guest's load, reporting each latency (us) *)
  refused : unit -> (int * int) list;
      (** (domid, devid) of every device rejected at the handshake *)
  quarantine : domid:int -> devid:int -> Quarantine.t option;
}

(* Everything a campaign against one backend needs that the other
   backend does differently. *)
type ('q, 'p) spec = {
  target : target;
  device : ('q, 'p) Evil_front.device;
  rng_salt : int;
  attacks : Guest_fault.attack list;
  add_device :
    Xen_ctx.t ->
    backend:Domain.t ->
    frontend:Domain.t ->
    devid:int ->
    ?queues:int ->
    unit ->
    unit;
  build : queues:int -> testbed;
  slo : float;  (** honest p99, us *)
}

let net =
  {
    target = Net;
    device = Evil_front.Vif;
    rng_salt = 17;
    attacks = net_classes;
    add_device = Toolstack.add_vif;
    build =
      (fun ~queues ->
        let s = Scenario.network ~flavor:Scenario.Kite ~num_queues:queues () in
        let nb () = Net_app.netback s.Scenario.net_app in
        {
          hv = s.Scenario.hv;
          ctx = s.Scenario.ctx;
          dd = s.Scenario.dd;
          victim = s.Scenario.domu.Domain.id;
          (* The honest guest keeps serving pings throughout the
             campaign. *)
          honest_load =
            (fun sample ->
              Scenario.when_net_ready s (fun () ->
                  for seq = 1 to 40 do
                    (match
                       Kite_net.Stack.ping s.Scenario.client_stack
                         ~dst:s.Scenario.guest_ip ~seq ()
                     with
                    | Some rtt -> sample (Time.to_us_f rtt)
                    | None -> ());
                    Process.sleep (Time.ms 2)
                  done));
          refused = (fun () -> Netback.rejected (nb ()));
          quarantine =
            (fun ~domid ~devid ->
              List.find_opt
                (fun i ->
                  Netback.frontend_domid i = domid && Netback.devid i = devid)
                (Netback.instances (nb ()))
              |> Option.map Netback.quarantine);
        });
    slo = 5_000.0;
  }

let blk =
  {
    target = Blk;
    device = Evil_front.Vbd;
    rng_salt = 29;
    attacks = blk_classes;
    add_device = Toolstack.add_vbd;
    build =
      (fun ~queues ->
        let s = Scenario.storage ~flavor:Scenario.Kite ~num_queues:queues () in
        let bb () = Blk_app.blkback s.Scenario.blk_app in
        let hv = s.Scenario.bhv in
        {
          hv;
          ctx = s.Scenario.bctx;
          dd = s.Scenario.bdd;
          victim = s.Scenario.bdomu.Domain.id;
          (* Timed reads far from the attackers' scratch sectors (their
             few accepted replay/slot-reuse writes land in the first
             dozen sectors). *)
          honest_load =
            (fun sample ->
              Scenario.when_blk_ready s (fun () ->
                  for i = 1 to 30 do
                    let t0 = Hypervisor.now hv in
                    ignore
                      (Blkfront.read s.Scenario.blkfront
                         ~sector:(20_000 + (8 * i))
                         ~count:8);
                    sample (Time.to_us_f (Hypervisor.now hv - t0));
                    Process.sleep (Time.ms 2)
                  done));
          refused = (fun () -> Blkback.rejected (bb ()));
          quarantine =
            (fun ~domid ~devid ->
              List.find_opt
                (fun i ->
                  Blkback.frontend_domid i = domid && Blkback.devid i = devid)
                (Blkback.instances (bb ()))
              |> Option.map Blkback.quarantine);
        });
    slo = 10_000.0;
  }

(* ------------------------------------------------------------------ *)
(* The campaign                                                        *)
(* ------------------------------------------------------------------ *)

(* How each attack class is delivered: a hostile handshake the backend
   must reject, or an honest handshake followed by a runtime volley. *)
let handshake_of : Guest_fault.attack -> Evil_front.handshake = function
  | Bad_ring_ref -> Forged_ring_ref
  | Bad_port -> Hijacked_port
  | Xenstore_abuse -> Garbage_keys
  | _ -> Honest

let volley (type q p) (device : (q, p) Evil_front.device)
    (ev : (q, p) Evil_front.t) ~victim : Guest_fault.attack -> unit =
  function
  | Ring_index -> Evil_front.attack_ring_index ev
  | Bad_gref -> Evil_front.attack_bad_gref ev
  | Foreign_gref -> Evil_front.attack_foreign_gref ev ~victim
  | Bad_length -> Evil_front.attack_bad_length ev
  | Bad_segment -> (
      match device with
      | Vbd -> Evil_front.attack_bad_segment ev
      | Vif -> ())
  | Replay -> Evil_front.attack_replay ev
  | Slot_reuse -> Evil_front.attack_slot_reuse ev
  | Xenbus_jump -> Evil_front.attack_xenbus_jump ev
  (* Well past the 64-wakeup threshold: signals landing while the worker
     is mid-wakeup are lost, not queued. *)
  | Evtchn_storm -> Evil_front.attack_storm ev ~count:200
  | Bad_ring_ref | Bad_port | Xenstore_abuse -> ()

let campaign spec ?only ~seed () =
  let report = Report.create () in
  let sink = Flight.sink () in
  Kite.Obs.run
    { (Kite.Obs.current ()) with check = Some report; flight = Some sink }
    (fun () ->
      let rng = Rng.create ((seed * 7919) + spec.rng_salt) in
      let queues = [| 1; 2; 4 |].(Rng.int rng 3) in
      let tb = spec.build ~queues in
      let evil =
        Hypervisor.create_domain tb.hv ~name:"evil" ~kind:Domain.Dom_u
          ~vcpus:1 ~mem_mb:256
      in
      let plan =
        List.mapi
          (fun idx cls -> (idx + 1, cls, Time.ms (5 + Rng.int rng 40)))
          (filter_only only spec.attacks)
      in
      let evils = ref [] in
      List.iter
        (fun (devid, cls, offset) ->
          Hypervisor.spawn tb.hv evil
            ~name:(Printf.sprintf "evil-%s" (Guest_fault.slug cls))
            (fun () ->
              Process.sleep offset;
              spec.add_device tb.ctx ~backend:tb.dd ~frontend:evil ~devid ();
              let ev =
                Evil_front.create spec.device tb.ctx ~domain:evil
                  ~backend:tb.dd ~devid ~nq:2
              in
              evils := ev :: !evils;
              let mode = handshake_of cls in
              Evil_front.handshake ev mode;
              if mode = Honest then begin
                Process.sleep (Time.ms 2);
                volley spec.device ev ~victim:tb.victim cls
              end))
        plan;
      let samples = ref [] in
      tb.honest_load (fun us -> samples := us :: !samples);
      Hypervisor.run_for tb.hv (Time.sec 2);
      List.iter Evil_front.cleanup !evils;
      let refused = tb.refused () in
      let classes =
        List.map
          (fun (devid, cls, _) ->
            let detected =
              Report.by_rule report (Guest_fault.rule cls) <> []
            in
            let rejected = List.mem (evil.Domain.id, devid) refused in
            let level =
              if rejected then 3
              else
                match tb.quarantine ~domid:evil.Domain.id ~devid with
                | Some q -> Quarantine.level q
                | None -> 0
            in
            {
              attack = cls;
              devid;
              detected;
              quarantined = rejected || level >= 1;
              rejected;
              level;
            })
          plan
      in
      Scenario.teardown_all ();
      let incidents =
        List.fold_left
          (fun acc f -> acc + List.length (Flight.incidents f))
          0 (Flight.flights sink)
      in
      evaluate ~seed ~target:spec.target ~queues ~classes
        ~errors:(Report.errors report) ~warnings:(Report.warnings report)
        ~incidents ~samples:!samples ~slo_us:spec.slo)

let run ?only ~seed () =
  if seed mod 2 = 0 then campaign blk ?only ~seed ()
  else campaign net ?only ~seed ()

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let class_to_json c =
  Printf.sprintf
    {|{"attack":"%s","devid":%d,"detected":%b,"quarantined":%b,"rejected":%b,"level":%d}|}
    (Guest_fault.slug c.attack) c.devid c.detected c.quarantined c.rejected
    c.level

let to_json r =
  Printf.sprintf
    {|{"seed":%d,"target":"%s","queues":%d,"ok":%b,"checker_errors":%d,"checker_warnings":%d,"incidents":%d,"handshake_rejections":%d,"honest_samples":%d,"honest_p99_us":%.1f,"slo_us":%.1f,"honest_ok":%b,"missed":[%s],"unquarantined":[%s],"classes":[%s]}|}
    r.seed (target_name r.target) r.queues r.ok r.checker_errors
    r.checker_warnings r.incidents r.handshake_rejections r.honest_samples
    r.honest_p99_us r.slo_us r.honest_ok
    (String.concat "," (List.map (Printf.sprintf "%S") r.missed))
    (String.concat "," (List.map (Printf.sprintf "%S") r.unquarantined))
    (String.concat "," (List.map class_to_json r.classes))

let pp_result ppf r =
  Format.fprintf ppf
    "seed %3d  %-3s q=%d  detected %d/%d  rejected %d  p99 %.0f us (slo %.0f)  \
     errors %d  incidents %d  %s"
    r.seed (target_name r.target) r.queues
    (List.length r.classes - List.length r.missed)
    (List.length r.classes) r.handshake_rejections r.honest_p99_us r.slo_us
    r.checker_errors r.incidents
    (if r.ok then "OK" else "FAIL")
