(** The always-on flight recorder: bounded cross-layer black box plus
    triggered incident snapshots.

    One {!t} per simulated machine holds a fixed-size ring of timestamped
    records tapped from the existing observability layers — completed
    {!Kite_trace.Trace} spans, {!Kite_fault.Fault} injections and notes,
    {!Kite_metrics.Registry} alert edges, {!Kite_check.Report} findings —
    through their single-observer hooks.  The ring keeps the most recent
    [limit] records and counts overwritten ones in {!dropped}: the same
    bounded, drops-counted discipline as [Trace.create ?limit], except a
    black box overwrites its oldest records instead of refusing new ones.

    A {e trigger} — driver-domain crash, health-probe alert edge, checker
    error, or an explicit request — freezes the ring into an
    {e incident snapshot}: the pre-trigger timeline, the records that
    arrive until the incident is sealed, a metrics summary delta between
    trigger and seal (including ring/grant occupancy gauges), the
    relevant xenstore subtree at the trigger instant, and the {!Slo}
    verdicts at seal.  Only one incident is open at a time; triggers
    during an open incident are recorded as evidence instead.

    Like every prior layer, disabled means free: the instrumented layers
    hold no reference to the recorder at all (the taps live inside the
    layers' own observer slots), and substrate hooks that call the
    recorder directly guard on a [Flight.t option]. *)

type record = {
  r_at : int;  (** simulated ns *)
  r_layer : string;  (** "trace", "fault", "metrics", "check", "flight" *)
  r_kind : string;  (** "span", "inject", "note", "alert", "finding", ... *)
  r_key : string;
  r_msg : string;
}

type t

val create :
  ?limit:int -> ?post_limit:int -> ?name:string -> now:(unit -> int) -> unit -> t
(** [limit] (default 4096) bounds the ring; [post_limit] (default 512)
    bounds the records an open incident captures after its trigger;
    [now] supplies simulated time for records from layers that carry no
    timestamp of their own (fault events, explicit marks). *)

val name : t -> string

val records : t -> record list
(** Current ring contents, oldest first (at most [limit]). *)

val dropped : t -> int
(** Records overwritten since the ring filled — expected to grow on long
    runs; only post-trigger loss inside an incident is a defect (see
    {!audit}). *)

(** {1 Recording}

    The hot hooks.  Substrate code must hold a [Flight.t option] and
    guard the call, like every other layer. *)

val record :
  t -> layer:string -> kind:string -> key:string -> msg:string -> unit
(** Append one record stamped with [now ()]. *)

val mark : t -> what:string -> msg:string -> unit
(** [record] shorthand for explicit milestones
    (layer ["flight"], kind ["mark"]). *)

val crash : t -> domain:string -> reason:string -> unit
(** Record a driver-domain crash and fire the {!Crash} trigger.
    [Toolstack.crash_driver_domain] calls this before tearing down the
    domain's xenstore subtree, so the incident's store snapshot still
    sees it. *)

val restart : t -> domain:string -> msg:string -> unit
(** Record a driver-domain restart milestone (no trigger: the crash that
    preceded it already opened the incident). *)

(** {1 Triggers and incidents} *)

type trigger = Crash | Alert_edge | Finding | Manual

val trigger_name : trigger -> string

val trigger : t -> trigger -> reason:string -> unit
(** Open an incident now: snapshot the ring, the metrics scalars, and
    the xenstore subtree.  While an incident is open further triggers
    only add a ["trigger-suppressed"] record. *)

type incident

val incidents : t -> incident list
(** All incidents, oldest first (sealed and open). *)

val open_incident : t -> incident option

val seal_all : t -> unit
(** Seal the open incident (if any) at [now ()]: compute its metrics
    delta and SLO verdicts.  Also refreshes {!slo_evals}. *)

val teardown : t -> unit
(** The recorder's step of its scenario's teardown: fire the sink's
    manual trigger when it holds no incident, mark, then {!seal_all}. *)

val incident_seq : incident -> int
val incident_at : incident -> int
val incident_trigger : incident -> trigger
val incident_reason : incident -> string
val incident_open : incident -> bool
val incident_sealed_at : incident -> int

val incident_pre : incident -> record list
(** The ring at the trigger instant, oldest first. *)

val incident_post : incident -> record list
(** Records captured after the trigger, up to [post_limit]. *)

val incident_timeline : incident -> record list
(** [pre @ post]: the correlated cross-layer timeline around the
    trigger. *)

val incident_truncated : incident -> int
(** Post-trigger records lost to [post_limit]; non-zero is reported by
    {!audit}. *)

val incident_delta : incident -> (string * (string * string) list * float * float) list
(** Metric instances whose scalar moved between trigger and seal, as
    (family, labels, at-trigger, at-seal). *)

val incident_store : incident -> (string * string) list
(** The captured xenstore subtree as (path, value) rows. *)

val incident_slos : incident -> Slo.eval list
(** SLO verdicts computed when the incident was sealed. *)

(** {1 SLOs} *)

val add_slo : t -> Slo.t -> unit
val slos : t -> Slo.t list

val slo_evals : t -> Slo.eval list
(** Verdicts from the last {!seal_all}. *)

(** {1 Layer taps}

    Each tap installs this recorder as the layer's observer (at most one
    per layer instance; installing replaces a previous tap), except
    {!tap_trace}, which subscribes alongside the tracer's other
    observers. *)

val tap_trace : t -> Kite_trace.Trace.t -> unit
(** Completed spans become ["trace"/"span"] records at their end time
    ({!Kite_trace.Trace.add_span_observer}). *)

val tap_fault : t -> Kite_fault.Fault.t -> unit
(** Injections and notes become ["fault"/"inject"] and ["fault"/"note"]
    records stamped with [now ()] (the fault layer has no clock). *)

val tap_metrics : t -> Kite_metrics.Registry.t -> unit
(** Alert edges become ["metrics"/"alert"] records {e and} fire the
    {!Alert_edge} trigger.  Also makes the registry the source for
    incident metrics deltas, exports [kite_flight_dropped_total]
    (ring-buffer overwrites — expected to grow on long runs) and a
    [kite_flight_dropping] probe that alerts only on post-trigger
    record loss inside the open incident (the actual defect). *)

val tap_path : t -> Kite_path.Path.t -> unit
(** Snapshot [p]'s latency waterfall into every future incident at
    trigger time. *)

val tap_report : t -> Kite_check.Report.t -> unit
(** Checker findings become ["check"/<severity>] records; an [Error]
    finding fires the {!Finding} trigger.  A report is shared by every
    checker of the run, so tap it from exactly one recorder. *)

val set_store_source : t -> (unit -> (string * string) list) -> unit
(** The xenstore-subtree dump captured into incident snapshots
    (default: none). *)

(** {1 Checker invariant} *)

val audit : t -> Kite_check.Report.t -> unit
(** End-of-run invariants: every incident sealed, no post-trigger records
    lost to [post_limit] (warnings), and the ring timeline monotone in
    simulated time (error). *)

(** {1 Run-wide default sink}

    [Scenario] consults this when building a testbed, exactly like the
    trace/fault/metrics sinks. *)

type sink

val sink : ?trigger:string -> unit -> sink
(** With [trigger], a recorder that holds no incident at its {!teardown}
    fires a {!Manual} trigger there, with that reason. *)

val create_in : sink -> name:string -> now:(unit -> int) -> t
val flights : sink -> t list
val set_default : sink option -> unit
val default : unit -> sink option

(** {1 Export} *)

val to_json : t list -> string
