(** Critical-path latency attribution: where does a request's time go?

    The tracer's spans already partition each net/blk request's lifetime
    into consecutive stages ({!Kite_trace.Trace.span_stages}); this layer
    classifies every stage as {e queueing} (waiting for capacity: a free
    ring slot, the backend getting to the ring), {e service} (work done on
    the request's behalf: grant copy, device I/O, NIC delivery) or
    {e notification wait} (a completion sitting in the ring until the
    event channel wakes the frontend), and aggregates the durations into
    per-(kind, stage) log-bucketed histograms — the "p99 waterfall" that
    says which stage dominates tail latency, per device kind and per
    device instance.

    It also carries the continuous CPU profiler: the tracer adds every
    simulated-CPU charge to the running process's (domain, process)
    cell ({!Kite_trace.Trace.observe_cpu}), so the engine attributes
    busy time per domain per process — the flat profile an incident
    snapshot wants next to the waterfall.

    The engine is a pure consumer of the tracer: no substrate code calls
    it, and an engine that taps no tracer sees nothing. *)

type seg_class = Queueing | Service | Notify

val class_name : seg_class -> string
(** ["queueing"], ["service"], ["notify"]. *)

val classify : kind:string -> stage:string -> seg_class
(** The static stage vocabulary: [queue] and [ring] are queueing,
    [complete] is notification wait, everything else ([frontend],
    [backend], [map], [device], [deliver], and unknown stages) is
    service. *)

type t

val create : ?name:string -> unit -> t
val name : t -> string

(** {1 Wiring} *)

val tap_trace : t -> Kite_trace.Trace.t -> unit
(** Subscribe to the tracer's completed spans
    ({!Kite_trace.Trace.add_span_observer}): each stage duration is
    observed into its (kind, stage) histogram and the span total into the
    kind's end-to-end accounting.  Composes with the flight recorder's
    tap.  Also become the tracer's one CPU observer
    ({!Kite_trace.Trace.observe_cpu}): each positive charge adds to its
    (domain, process) cell of the profile. *)

val wire_metrics : t -> Kite_metrics.Registry.t -> unit
(** Mirror the attribution into the registry so the series are browsable
    and ride incident metrics deltas: per-stage histograms
    [kite_path_stage_ns{kind,stage,class}], span counters
    [kite_path_spans_total{kind}], and polled per-(domain, process) CPU
    counters [kite_path_cpu_ns_total{domain,process}].  Wire an engine
    before it sees its first span or charge: what it accumulated earlier
    is not mirrored. *)

(** {1 Queries} *)

type stage_stat = {
  st_kind : string;
  st_stage : string;
  st_class : seg_class;
  st_n : int;  (** stage occurrences observed *)
  st_total_ns : int;  (** exact sum of observed durations *)
  st_p50 : float;  (** ns, from the log-bucketed histogram *)
  st_p99 : float;  (** ns *)
}

val stage_stats : t -> stage_stat list
(** Every observed (kind, stage), kinds and stages in first-seen
    (traversal) order. *)

val spans_seen : t -> int

val span_count : t -> kind:string -> int
(** Completed spans of [kind] observed. *)

val span_total_ns : t -> kind:string -> int
(** Exact sum of end-to-end durations over those spans.  Because stages
    partition each span, the per-stage totals of the kind sum to exactly
    this (the latency-waterfall experiment asserts it within 1%). *)

val class_total_ns : t -> kind:string -> seg_class -> int
(** Sum of stage durations of the class — the saturation sweep's
    "queueing overtakes service" signal. *)

val devices : t -> (string * string * int * int) list
(** Per device instance: (kind, key, spans, total ns), first-seen
    order. *)

val profile : t -> (string * string * int) list
(** The CPU profile: (domain, process, busy ns), busiest first, ties
    by domain, then process. *)

val cpu_total_ns : t -> int
(** The sum of the profile's busy ns. *)

val waterfall_lines : t -> string list
(** A compact rendering of the waterfall (one line per (kind, stage)
    plus per-kind totals) for flight-recorder incident snapshots. *)

val to_json : t list -> string
(** Waterfall + profile of each engine as a JSON array. *)

(** {1 Run-wide default sink}

    [Scenario] consults this when building a testbed, exactly like the
    trace/fault/metrics/flight sinks. *)

type sink

val sink : unit -> sink
val create_in : sink -> name:string -> t
val paths : sink -> t list
val set_default : sink option -> unit
val default : unit -> sink option
