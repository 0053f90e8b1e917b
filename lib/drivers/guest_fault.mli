(** Typed trust-boundary violations.

    Everything a frontend publishes — ring references, producer indices,
    grant references, descriptor lengths and segment geometry, request
    ids, xenstore keys, xenbus states, event-channel notifications — is
    attacker-controlled.  When a backend's validation rejects one of
    them it raises {!Guest_fault} naming the attack class, and the
    quarantine policy ({!Quarantine}) decides how hard to hit back.

    The taxonomy below is the shared vocabulary of the whole adversary
    subsystem: backends raise it, {!Kite_check.Check.guest_fault}
    findings carry its {!slug}, per-guest misbehavior metrics and the
    [lib/adversary] campaign assertions are keyed by it. *)

type attack =
  | Ring_index  (** out-of-range published request-producer index *)
  | Bad_ring_ref  (** unknown, mistyped or foreign shared-ring reference *)
  | Bad_port  (** event channel that cannot be bound *)
  | Bad_gref  (** unknown or revoked grant reference in a descriptor *)
  | Foreign_gref  (** grant reference granted by some other domain *)
  | Bad_length  (** descriptor length outside the granted page *)
  | Bad_segment  (** segment geometry, count or device-range violation *)
  | Replay  (** request id replayed while still in flight on its queue *)
  | Slot_reuse  (** request id live on two queues of one device at once *)
  | Xenbus_jump  (** illegal frontend-driven xenbus state transition *)
  | Xenstore_abuse  (** missing or malformed negotiation keys *)
  | Evtchn_storm  (** notification storm carrying no ring work *)

val slug : attack -> string
(** Stable kebab-case name, e.g. [Bad_gref] -> ["bad-gref"]. *)

val rule : attack -> string
(** The checker rule a detection lands under: ["guest-" ^ slug]. *)

val of_slug : string -> attack option

val severe : attack -> bool
(** Attack classes after which the device state itself can no longer be
    trusted (a scribbled shared index): quarantine skips the ladder and
    goes straight to offline. *)

exception
  Guest_fault of {
    domid : int;  (** the offending frontend *)
    device : string;  (** backend device name, e.g. ["vif7.0"] *)
    attack : attack;
    detail : string;
  }

val fail : domid:int -> device:string -> attack:attack -> detail:string -> 'a
(** Raise {!Guest_fault}. *)
