(** xentrace-style event tracing for the Kite model layers.

    One {!t} records the events of a single simulated machine: scheduler
    activity, hypercalls (with their simulated cost and calling domain),
    event-channel sends/deliveries, ring batch sizes, driver-level
    milestones, and request-lifecycle {e spans} (a packet from DomU tx
    grant to bridge egress, a blk request from frontend submit to
    response) with per-hop attributed simulated time.

    Like {!Kite_check.Check}, this library sits {e below}
    [kite_sim]/[kite_xen] in the dependency graph (it depends only on
    [fmt]): the instrumented layers hold a [Trace.t option] consulted at
    each hook point, so a disabled tracer costs one [match] on [None] and
    the benchmarks are unaffected.  Every hook therefore speaks in plain
    ints and strings; timestamps are simulated nanoseconds supplied by the
    caller.

    Exporters: Chrome trace-event JSON (loadable in Perfetto / catapult,
    one track per domain and per process), a per-domain hypercall profile
    (the [hypercalls] ablation bench of DESIGN.md §4), and per-stage span
    duration lists for latency-breakdown tables. *)

type t

val create : ?limit:int -> ?name:string -> unit -> t
(** A fresh tracer.  [limit] (default 1_000_000) bounds the number of
    buffered events; once reached, further events are counted in
    {!dropped} instead of being recorded (hypercall-profile aggregation
    and spans are exact regardless). *)

val name : t -> string

val events : t -> int
(** Number of events recorded so far. *)

val dropped : t -> int
(** Events discarded after the buffer limit was reached. *)

(** {1 Run-wide default}

    [Scenario] consults this when building a testbed: when a sink is set,
    every machine it creates is traced by a fresh [t] registered in the
    sink.  [Kite.Obs.run] sets it (perfbench sets it directly). *)

type sink
(** An ordered collection of per-machine tracers belonging to one run. *)

val sink : unit -> sink
val create_in : sink -> name:string -> t
val traces : sink -> t list
(** In creation order. *)

val set_default : sink option -> unit
val default : unit -> sink option

(** {1 Scheduler hooks (called by [Process])} *)

val proc_enter : t -> name:string -> unit
(** The named process starts (or resumes) a step; it becomes the
    attribution target (the Chrome thread) of subsequent events.  A
    ["Domain/thread"] name is split into its track components. *)

val proc_leave : t -> unit

val proc_spawned : t -> at:int -> name:string -> daemon:bool -> unit

val proc_blocked :
  t ->
  at:int ->
  name:string ->
  kind:[ `Sleep of int | `Yield | `Suspend of string option ] ->
  unit

val proc_exited : t -> at:int -> name:string -> unit

(** {1 Hypervisor hooks} *)

val charge : t -> at:int -> domain:string -> op:string -> cost:int -> unit
(** A charged operation ([op] as passed to [Hypervisor.charge], e.g.
    ["hypercall.grant_copy"]); [cost] is its simulated service time in ns.
    Operations named ["hypercall.*"] also feed the exact per-domain
    hypercall profile. *)

val cpu_work : t -> at:int -> domain:string -> cost:int -> unit
(** Plain vCPU occupancy (no hypercall), e.g. per-packet driver CPU. *)

(** {1 Event-channel hooks} *)

val evtchn_send : t -> at:int -> domain:string -> port:int -> unit
val evtchn_deliver : t -> at:int -> domain:string -> port:int -> unit

(** {1 Ring hooks}

    Rings have no clock of their own, so the attaching driver supplies
    [now]. *)

type ring

type side = [ `Req | `Rsp ]

val ring : t -> name:string -> now:(unit -> int) -> ring

val ring_publish : ring -> side -> batch:int -> notify:bool -> unit
(** Producer published [batch] new entries ([push_requests] /
    [push_responses]); [notify] is the event-channel decision. *)

val ring_take : ring -> side -> got:bool -> unit
(** Consumer pulled one entry ([got = true]) or found the ring empty; a
    run of takes ending in an empty poll is recorded as one consume-batch
    event carrying the run length. *)

(** {1 Driver events} *)

val driver :
  t -> at:int -> domain:string -> name:string ->
  args:(string * string) list -> unit
(** Instant driver-level milestone (netback tx/rx batch sizes, wake-tier
    transitions, blkback batch dispatch, ...). *)

(** {1 Request-lifecycle spans}

    A span is identified by [(kind, key, id)]: [kind] groups spans of the
    same shape for the latency breakdown (["net.tx"], ["blk"]), [key]
    distinguishes device instances (["vif1.0"]), [id] is the protocol
    request id.  A span begins in its first stage; each {!span_hop} closes
    the current stage and opens the next; {!span_end} closes the span.
    Stages therefore partition the span's lifetime, so per-stage durations
    always sum to at most the span total. *)

val span_begin :
  t -> at:int -> kind:string -> key:string -> id:int -> stage:string -> unit

val span_hop :
  t -> at:int -> kind:string -> key:string -> id:int -> stage:string ->
  args:(string * string) list -> unit
(** A hop for an unknown span (the request began before tracing was
    enabled, or the id never had a {!span_begin} — e.g. a byzantine
    frontend writing the ring directly) is dropped but counted in
    {!orphan_hops}: lost attribution is visible, not silent. *)

val span_end : t -> at:int -> kind:string -> key:string -> id:int -> unit
(** An end for an unknown span is dropped but counted in
    {!orphan_ends}, like {!span_hop}. *)

type span = {
  span_kind : string;
  span_key : string;
  span_id : int;
  span_begin_at : int;
  span_end_at : int;
  span_stages : (string * int * int) list;
      (** (stage, start, stop), in traversal order; intervals are
          consecutive and lie within [[span_begin_at, span_end_at]]. *)
}

val spans : t -> span list
(** Completed spans, in completion order. *)

val open_spans : t -> int
(** Requests still in flight (began but not ended). *)

val orphan_hops : t -> int
(** Hops that arrived for spans never begun (or already ended) and were
    dropped.  Scenario teardown reports a non-zero count as a
    [span-orphaned] checker warning. *)

val orphan_ends : t -> int
(** Ends that arrived for unknown spans, counted like {!orphan_hops}. *)

val add_span_observer : t -> (span -> unit) -> unit
(** Subscribe a completed-span observer, called from {!span_end} after
    the span is recorded, in subscription order.  Independent layers
    (the path attribution engine, the flight recorder) compose on one
    tracer.  Observers live as long as the tracer; with none,
    [span_end] stays on its pre-observer path. *)

(** {1 Exporters} *)

val to_chrome_json : t list -> string
(** The machines' events as a Chrome trace-event JSON array (load in
    Perfetto or chrome://tracing).  Each domain becomes a process track
    (named ["machine/domain"]), each simulated thread a thread track;
    completed spans are rendered as per-stage slices on a dedicated
    ["spans"] track per machine. *)

val hypercall_profile :
  t list -> (string * string * string * int * int) list
(** [(machine, domain, op, count, total_cost_ns)] rows for every
    ["hypercall.*"] operation charged, sorted by machine, domain, op.
    Exact even when the event buffer overflowed. *)

val breakdown : t list -> (string * (string * float list) list) list
(** Per span kind, per stage (first-seen order, ["TOTAL"] last): the
    attributed durations in ns of every completed span, ready for
    percentile math. *)
