(** Typed metric registry: live telemetry for one simulated machine.

    A [Registry.t] holds counters, gauges and log-bucketed histograms,
    each labelled (per-domain, per-device, per-queue).  Instrumented
    layers keep a [Registry.t option] — exactly the kite_check /
    kite_trace / kite_fault discipline — so a disabled registry costs a
    single [match None] on the hot path.

    Instances register in two styles:

    - {e pushed} handles ({!counter}, {!gauge}, {!histogram}) that the
      hot path updates with {!inc} / {!observe};
    - {e polled} functions ({!counter_fn}, {!gauge_fn}) evaluated only
      at sampling / exposition time, the preferred style for layers that
      already keep their own mutable counters (ring occupancy, active
      grants, live processes, ...).

    {!sample} reads every instance at a simulated instant, keeping three
    anchors per instance (its first sample, its newest sample and the
    instant its value last changed), and evaluates health {!probe}s,
    turning [Ok -> Alert] edges into structured {!alert} records.

    Like the tracer, registries live in a run-wide {!sink} (one registry
    per simulated machine) that `Scenario` consults via {!default}. *)

type t

val create : ?name:string -> unit -> t
(** [name] labels the machine in multi-registry exposition (default
    "sim"). *)

val name : t -> string

val interval : int
(** The sampling period of a machine's sampler process, in simulated ns:
    100 ms. *)

(** {1 Instruments} *)

type counter
type gauge
type histogram

val counter : t -> ?help:string -> string -> (string * string) list -> counter
(** [counter t name labels] registers (or finds) the counter instance of
    family [name] with exactly [labels].  Family names must match
    [[a-zA-Z_:][a-zA-Z0-9_:]*]; registering the same family under a
    different metric kind raises [Invalid_argument]. *)

val gauge : t -> string -> (string * string) list -> gauge
(** A pushed gauge, registered with no help text. *)

val histogram :
  t ->
  ?help:string ->
  ?base:float ->
  ?factor:float ->
  string ->
  (string * string) list ->
  histogram
(** Log-bucketed ({!Kite_stats.Histogram}); [base]/[factor] as there. *)

val inc : counter -> unit
val add : counter -> int -> unit
val set : gauge -> float -> unit
val observe : histogram -> float -> unit

val counter_fn :
  t -> ?help:string -> string -> (string * string) list -> (unit -> int) -> unit
(** Polled counter: the closure is read at sampling/exposition time and
    must be monotone.  Re-registering the same (family, labels) instance
    replaces the closure but keeps the recorded samples — drivers
    re-register after crash/reconnect. *)

val gauge_fn :
  t ->
  ?help:string ->
  string ->
  (string * string) list ->
  (unit -> float) ->
  unit
(** Polled gauge; replacement semantics as {!counter_fn}. *)

(** {1 Reading} *)

type kind = Counter | Gauge | Histogram

val families : t -> (string * kind * string) list
(** Registered families as (name, kind, help), sorted by name. *)

val read : t -> (string * (string * string) list * float) list
(** Current scalar value of every instance (polled closures evaluated;
    histograms read as their observation count), sorted by family then
    label string.  A polled closure that raises reads as [nan]. *)

val value : t -> string -> (string * string) list -> float option
(** Current value of one instance; [None] if never registered. *)

val quantile : t -> string -> (string * string) list -> float -> float option
(** [quantile t name labels q] from a histogram instance, [q] in [\[0, 1\]]
    as {!Kite_stats.Histogram.quantile} takes it; [None] when the
    instance is missing, empty, or not a histogram.  For the
    [p ∈ \[0, 100\]] convention of {!Kite_stats.Summary.percentile} use
    {!percentile}. *)

val percentile : t -> string -> (string * string) list -> float -> float option
(** [percentile t name labels p] for [p] in [\[0, 100\]] — the single
    bridge between the two quantile conventions: it is exactly
    [quantile t name labels (p /. 100.)]. *)

val hbuckets : t -> string -> (string * string) list -> (float * float * int) list option
(** Non-empty buckets of a histogram instance as (lower bound, upper
    bound, count), ascending — the raw material for windowed SLO math
    (diff two snapshots to isolate the observations in between).  [None]
    when the instance is missing or not a histogram. *)

(** {1 Sampling} *)

val sample : t -> at:int -> unit
(** {!snapshot}, then evaluate health probes. *)

val snapshot : t -> at:int -> unit
(** Read every instance at simulated time [at] (ns), without evaluating
    probes.  Each instance keeps its first sample, its newest sample and
    the instant of the last sample whose value differed ([<>]) from the
    one before.  A probe may charge the domain that samples (a xenstore
    read), which needs a process; the snapshot needs none, so it can
    close a run outside one. *)

val samples_taken : t -> int

val last_sample : t -> string -> (string * string) list -> (int * float) option
(** The newest sample as (at, value) — the steady-state value to report
    when the live instrument has already been torn down; [None] if never
    registered or never sampled. *)

val rate : t -> string -> (string * string) list -> float option
(** Per-second change over the instance's {e active window}: from its
    first sample to the last sample at which the value moved, so an
    idle drain tail does not dilute the figure.  [None] until the value
    has been seen to change. *)

val freeze : t -> unit
(** For a registry whose machine is torn down: read each polled counter
    and gauge once and keep that value in place of its closure (a
    closure that raises keeps [nan]), and drop the health probes and the
    alert observer.  Every read and exposition then returns what it
    returned before, and the registry holds no closure into the
    machine.  Re-registering a polled instance polls again. *)

(** {1 Health probes and alerts} *)

type health = Healthy | Alert of string

type alert = {
  alert_at : int;  (** sim ns of the sampling tick that saw the edge *)
  alert_probe : string;
  alert_labels : (string * string) list;
  alert_msg : string;
}

val probe :
  t -> name:string -> (string * string) list -> (unit -> health) -> unit
(** Register a health probe evaluated on every {!sample}.  Alerts are
    edge-triggered: only a [Healthy -> Alert] transition appends an
    {!alert} record (re-registering the same (name, labels) replaces
    the closure and resets the edge state).  A probe that raises is
    treated as [Healthy] (never fires). *)

val alerts : t -> alert list
(** Fired alerts, oldest first.  Also exposed as the
    [kite_alerts_total] counter family. *)

val set_alert_observer : t -> (alert -> unit) option -> unit
(** Install (or clear) an observer called on each [Healthy -> Alert]
    edge as {!sample} records it.  At most one observer per registry;
    the flight recorder is the intended client. *)

val stalled_probe :
  ?ticks:int ->
  pending:(unit -> int) ->
  progress:(unit -> int) ->
  unit ->
  unit ->
  health
(** [stalled_probe ~pending ~progress ()] builds a ring-stall probe
    closure: it alerts once [pending () > 0] while [progress ()] (a
    monotone consumed-work counter) has not moved for [ticks]
    consecutive evaluations (default 3), and recovers as soon as
    progress resumes or the ring drains. *)

(** {1 Exposition} *)

val to_prometheus : t list -> string
(** Prometheus text exposition (HELP/TYPE comments, escaped label
    values, histograms as cumulative [_bucket{le=...}] plus [_sum] and
    [_count]).  With more than one registry every sample gains a
    [machine="<registry name>"] label, federation-style. *)

val to_json : t list -> string
(** Machine-readable dump: one JSON object per registry with scalar
    instances, histogram summaries (count/mean/p50/p99) and alerts. *)

val parse_prometheus : string -> (string * (string * string) list * float) list
(** Parse text exposition back into (family, labels, value) samples —
    the scraper half of the round-trip, used by the in-sim scraper and
    the tests.  Comment/blank lines are skipped; a malformed sample
    line raises [Invalid_argument]. *)

(** {1 Run-wide sink} *)

type sink

val sink : unit -> sink

val create_in : sink -> name:string -> t
(** New registry registered in the sink, named after its machine. *)

val registries : sink -> t list
(** Members in creation order. *)

val set_default : sink option -> unit
(** Install the run-wide sink consulted by [Scenario] testbeds. *)

val default : unit -> sink option
