(** Per-device quarantine state for a misbehaving frontend.

    Backends keep one of these per instance and feed every
    {!Guest_fault} into {!note}; the returned escalation (if any) is the
    action the backend must now apply:

    - [Throttle]: keep serving, but charge the guest a scheduling
      penalty per wakeup, bounding the damage of cheap-to-send attacks.
    - [Detach]: stop the device's worker threads, unmap its grants and
      close its event channels — the device goes dead but its xenbus
      state is left alone.
    - [Offline]: detach plus drive the backend directory to
      [Closing]/[Closed], evicting the guest's device for good.

    The thresholds are cumulative fault counts: throttle after 1 fault,
    detach after 2, offline after 3; {!Guest_fault.severe} classes jump
    straight to [Offline].  Pure bookkeeping — the backend
    owns the plumbing, so the module has no hooks and costs nothing when
    no faults occur. *)

type action = Throttle | Detach | Offline

val action_name : action -> string

val throttle_penalty : Kite_sim.Time.span
(** Sleep charged to a throttled device's workers per wakeup: 100 us. *)

type t

val create : unit -> t

val note : t -> Guest_fault.attack -> action option
(** Record one fault; [Some a] when an escalation threshold was crossed
    by this fault (each action fires at most once, in ladder order). *)

val level : t -> int
(** 0 ok, 1 throttled, 2 detached, 3 offline. *)

val throttled : t -> bool

val faults : t -> int
(** Total faults recorded. *)
