(** Seeded, deterministic fault injection.

    Like [Kite_check] and [Kite_trace], this layer is designed to cost
    one [match _ with None] on every hot path when disabled: substrate
    layers hold a [Fault.t option] and consult it only where a fault
    could physically occur.  When enabled, each eligible operation is
    counted per injection point and a {!plan} decides — from the count
    and a seeded splitmix64 stream — whether the operation is sabotaged.
    Same seed + same plan + same workload ⇒ the identical injection
    sequence, which is what makes crash/restart recovery testable.

    The library sits below the simulator (it depends only on [fmt]) so
    every layer from [Xenstore] to the device models can hold one. *)

(** {1 Injection points} *)

type point =
  | Evtchn_notify  (** drop an event-channel notification (sender pays,
                       receiver never wakes) *)
  | Xenstore_write  (** lose a xenstore write: no mutation, no watch *)
  | Xenstore_watch  (** lose a single watch-event delivery *)
  | Ring_slot  (** corrupt a request slot; the consumer discards it *)
  | Device_io  (** transient device error (NVMe/NIC); retryable *)

val point_name : point -> string
(** ["evtchn-notify"], ["xenstore-write"], ["xenstore-watch"],
    ["ring-slot"], ["device-io"]. *)

val point_of_name : string -> point option

(** {1 Plans} *)

type spec = {
  sp_point : point;
  sp_key : string;
      (** substring match against the hook's key (port number, xenstore
          path, ring or device name); [""] matches anything *)
  sp_first : int;  (** 1-based eligible-operation index to start at *)
  sp_every : int;  (** then inject every [sp_every]-th eligible op *)
  sp_count : int;  (** cap on deterministic injections from this spec *)
  sp_prob : float;
      (** additional per-op injection probability, drawn from the seeded
          stream; [0.] keeps the spec fully count-based *)
}

val spec :
  ?key:string ->
  ?first:int ->
  ?every:int ->
  ?count:int ->
  ?prob:float ->
  point ->
  spec
(** Defaults: [key:""], [first:1], [every:1], [count:max_int],
    [prob:0.]. *)

type plan = spec list

val default_plan : plan
(** A mild, always-recoverable plan (periodic transient device errors)
    used by [kite_ctl faults] when no [--plan] file is given. *)

val plan_to_string : plan -> string

val plan_of_string : string -> (plan, string) result
(** One spec per line: [POINT key=K first=N every=N count=N prob=F].
    Blank lines and [#] comments are skipped.  Inverse of
    {!plan_to_string}. *)

(** {1 Injectors} *)

type t

val create : ?name:string -> seed:int -> plan -> t

val fire : t -> point -> key:string -> bool
(** The one hook the substrate calls.  Counts the eligible operation and
    returns [true] when the plan injects a fault into it.  Every
    injection is appended to the {!events} log. *)

val note : t -> what:string -> key:string -> unit
(** Record a recovery milestone ("crash", "restart",
    "blkfront.replay", ...) in the same ordered log as injections, so a
    whole crash/recovery sequence can be compared across runs. *)

val injected : t -> (point * string * int) list
(** Injections in order: (point, key, eligible-op index at injection). *)

val injected_count : t -> int
val notes : t -> (string * string) list

val events : t -> string list
(** The merged ordered log — ["inject <point> <key> #<n>"] and
    ["note <what> <key>"] lines — for determinism assertions. *)

(** {1 Observation} *)

type event =
  | Injected of point * string * int
      (** (point, key, eligible-op index), as {!injected} reports *)
  | Noted of string * string  (** (what, key), as {!note} records *)

val set_observer : t -> (event -> unit) option -> unit
(** Install (or clear) an event observer, called after each injection or
    note is appended to the log.  Events carry no timestamp (this layer
    has no clock); an observer that needs one must supply its own.  At
    most one observer per injector; the flight recorder is the intended
    client. *)

(** {1 Sinks: run-wide defaults} *)

(** A sink carries the seed and plan for one run and collects every
    injector created from it; [Scenario] consults the default sink the
    same way it consults [Check.default] and [Trace.default]. *)

type sink

val sink : ?seed:int -> plan -> sink
(** Default seed: [1]. *)

val create_in : sink -> name:string -> t
(** Per-machine injector with a stream split deterministically from the
    sink seed and the creation index (first created gets index 0, so the
    sequence is reproducible run-to-run within a fresh sink). *)

val faults : sink -> t list
(** Injectors created in this sink, in creation order. *)

val set_default : sink option -> unit
val default : unit -> sink option

(** {1 Reporting} *)

val print : t list -> unit
val to_json : t list -> string
