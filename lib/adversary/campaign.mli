(** Seeded byzantine attack campaigns.

    One testbed per run: an honest guest serving real load next to a
    malicious guest with one hostile device per attack class
    ({!Kite_drivers.Guest_fault.attack}), fired at seed-randomized
    times.  Three-part oracle —

    - every injected attack produces a typed finding under its
      ["guest-<slug>"] checker rule;
    - every hostile device is quarantined (escalation level >= 1) or
      its handshake rejected outright;
    - the honest guest's p99 stays inside its SLO, and the checker
      reports {e zero errors} (detections are warnings; an error means
      the backend itself broke).

    The flight recorder is armed as a run-wide sink, so each campaign
    also freezes at least one incident snapshot. *)

type target = Net | Blk

type class_result = {
  attack : Kite_drivers.Guest_fault.attack;
  devid : int;
  detected : bool;
  quarantined : bool;
  rejected : bool;
  level : int;  (** quarantine level reached (3 when rejected) *)
}

type result = {
  seed : int;
  target : target;
  queues : int;  (** honest guest's negotiated queue count *)
  classes : class_result list;
  missed : string list;
  unquarantined : string list;
  handshake_rejections : int;
  checker_errors : int;
  checker_warnings : int;
  incidents : int;
  honest_samples : int;
  honest_p99_us : float;
  slo_us : float;
  honest_ok : bool;
  ok : bool;
}

val run :
  ?only:Kite_drivers.Guest_fault.attack list -> seed:int -> unit -> result
(** One campaign.  Even seeds attack the storage domain, odd seeds the
    network domain (mirroring the multi-queue stress sweep's
    alternation); [only] restricts it to those attack classes. *)

val to_json : result -> string
val pp_result : Format.formatter -> result -> unit
