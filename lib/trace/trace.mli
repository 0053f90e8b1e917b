(** xentrace-style event tracing for the Kite model layers.

    One {!t} records the events of a single simulated machine: scheduler
    activity, hypercalls (with their simulated cost and calling domain),
    event-channel sends/deliveries, ring batch sizes, driver-level
    milestones, and request-lifecycle {e spans} (a packet from DomU tx
    grant to bridge egress, a blk request from frontend submit to
    response) with per-hop attributed simulated time.

    Like {!Kite_check.Check}, this library sits {e below}
    [kite_sim]/[kite_xen] in the dependency graph (it depends only on
    [kite_stats] and [fmt]): the instrumented layers hold a
    [Trace.t option] consulted at each hook point, so a disabled tracer
    costs one [match] on [None] and the benchmarks are unaffected.
    Timestamps are simulated nanoseconds supplied by the caller.

    Two modes.  A {e recording} tracer stores every event and every
    completed span, for the exporters that read them back:
    {!to_chrome_json}, {!spans} and {!breakdown}.  A {e counting} tracer
    stores no event and keeps no completed span: it interns no label,
    resolves no track and allocates no chunk, and a scheduler, charge,
    event-channel or ring event allocates nothing at all.  It still
    reports what a recording tracer with the same limit would report
    through {!events}, {!dropped}, {!span_count}, {!open_spans},
    {!orphan_hops}, {!orphan_ends} and {!hypercall_profile}, it still
    tracks the running process, and it still passes every completed
    span and every CPU charge to its observers (the path engine, the
    flight recorder).  Its exporters raise [Invalid_argument].  A
    tracer made by {!create} records; one made by {!create_in} follows
    its {!sink}, which counts unless made with [~record:true]
    ([kite_ctl trace] records only for [--out] or [--breakdown]).

    Open spans are found, in both modes, by their (kind, key) pair among
    the few a tracer sees, then by id in an int-keyed table: no key
    string is built on a begin, hop or end.

    Storage (recording): events live in fixed-size chunks of int
    columns (time, duration, track, label, up to four int arguments),
    allocated as they fill.  A label (phase, name, category, argument keys) and a track
    (pid, tid) are interned once per tracer; string-valued arguments are
    ids into a per-tracer string table.  The hot hooks take handles that
    carry what they would otherwise look up by name: a {!proc} per
    process (which keeps the process's own track after its first event),
    a {!ring} per ring and an {!op} per charged operation.  A hook that
    names a domain by string finds its pid by comparing the string, by
    identity, with the one last looked up for each pid; only a miss
    hashes the name.  Callers passing [Domain.name] pass the same string
    every time, but a process's domain is a copy cut from its name, so
    each process's first event misses, and so does the next lookup by
    [Domain.name] after it.  A string argument is hashed into the string
    table on every driver event, and on a wait whose label is not the
    process's previous one.  Recording a scheduler, charge, event-channel
    or ring event allocates nothing but a fresh chunk every 1,024 events.
    Int argument values stay ints until {!to_chrome_json} renders them.

    Exporters: Chrome trace-event JSON (loadable in Perfetto / catapult,
    one track per domain and per process), a per-domain hypercall profile
    (the [hypercalls] ablation bench of DESIGN.md §4), and per-stage span
    duration lists for latency-breakdown tables. *)

type t

val create : ?limit:int -> ?name:string -> unit -> t
(** A fresh recording tracer.  [limit] (default 1_000_000) bounds the
    number of buffered events; once reached, further events are counted
    in {!dropped} instead of being recorded (hypercall-profile
    aggregation and spans are exact regardless). *)

val name : t -> string

val events : t -> int
(** Events recorded so far; on a counting tracer, the events it would
    have recorded.  At most the limit in both modes. *)

val dropped : t -> int
(** Events past the limit: refused by a recording tracer, counted alike
    by a counting one. *)

(** {1 Run-wide default}

    [Scenario] consults this when building a testbed: when a sink is set,
    every machine it creates is traced by a fresh [t] registered in the
    sink.  [Kite.Obs.run] sets it (perfbench sets it directly). *)

type sink
(** An ordered collection of per-machine tracers belonging to one run. *)

val sink : ?record:bool -> unit -> sink
(** [record] (default false) makes every member a recording tracer;
    arm it only for an exporter that reads stored events or spans. *)

val create_in : sink -> name:string -> t
(** A member with the default limit, recording or counting as its sink
    says. *)

val traces : sink -> t list
(** In creation order. *)

val set_default : sink option -> unit
val default : unit -> sink option

(** {1 Scheduler hooks (called by [Process])} *)

type proc
(** A tracer's handle on one process: its ["Domain/thread"] name split
    into its track components once, the thread's tids cached, its own
    track among them, and the CPU observer's cell of its last charge.
    The caches are one tracer's, so a handle serves one tracer. *)

val proc : name:string -> proc

val proc_enter : t -> proc -> unit
(** The process starts (or resumes) a step; it becomes the attribution
    target (the Chrome thread, the CPU observer's process) of subsequent
    events until the matching {!proc_leave}, in both modes. *)

val proc_leave : t -> unit

val proc_spawned : t -> at:int -> proc -> daemon:bool -> unit

val proc_blocked :
  t ->
  at:int ->
  proc ->
  kind:[ `Sleep of int | `Yield | `Suspend of string option ] ->
  unit

val proc_exited : t -> at:int -> proc -> unit

(** {1 Hypervisor hooks} *)

type op
(** A charged operation on one domain, resolved once per tracer: its
    label and, for a hypercall, its profile cell. *)

val op : t -> domain:string -> op:string -> op
(** The handle for [op] (as passed to [Hypervisor.charge], e.g.
    ["hypercall.grant_copy"]) charged to [domain]; the same handle for
    the same pair.  Operations named ["hypercall.*"] feed the exact
    per-domain hypercall profile. *)

val charge : t -> at:int -> op -> cost:int -> unit
(** One charge of the operation; [cost] is its simulated service time in
    ns. *)

val cpu_work : t -> at:int -> domain:string -> cost:int -> unit
(** Plain vCPU occupancy (no hypercall), e.g. per-packet driver CPU. *)

val observe_cpu : t -> (domain:string -> process:string -> int ref) -> unit
(** Subscribe the tracer's one CPU observer (the path engine's profile):
    each {!charge} and {!cpu_work} of positive cost, in both modes, adds
    its cost to [cell ~domain ~process], where [process] is the thread
    part of the running process's name (["(interrupt)"] outside any
    process).  A charge in the domain the process was last charged in,
    named by the same string, adds to the cell that charge got, without
    calling [cell].  A second observer raises [Invalid_argument]. *)

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

type arg = Int of string * int | Str of string * string
(** An event argument: its key and its value.  An [Int] is stored as an
    int and rendered as a string only by {!to_chrome_json}. *)

val driver :
  t -> at:int -> domain:string -> name:string -> args:arg list -> unit
(** Instant driver-level milestone (netback tx/rx batch sizes, wake-tier
    transitions, blkback batch dispatch, ...), with at most four
    arguments; more raise [Invalid_argument] at the call, in both
    modes. *)

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
  args:arg list -> unit
(** A hop for an unknown span (the request began before tracing was
    enabled, or the id never had a {!span_begin} — e.g. a byzantine
    frontend writing the ring directly) is dropped but counted in
    {!orphan_hops}: lost attribution is visible, not silent.  A stage is
    exported with the span id before [args], so a hop takes at most
    three; more raise [Invalid_argument] at the call, in both modes,
    whether or not the span is open.  A counting tracer drops [args]. *)

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
(** Completed spans, in completion order.  Recording tracers only. *)

val span_count : t -> int
(** [List.length (spans t)], without copying the list. *)

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
    the span is recorded, in subscription order, in both modes.
    Independent layers (the path attribution engine, the flight
    recorder) compose on one tracer.  Observers live as long as the
    tracer; a counting tracer with none builds no span record. *)

(** {1 Exporters} *)

val to_chrome_json : t list -> string
(** The machines' events as a Chrome trace-event JSON array (load in
    Perfetto or chrome://tracing).  Each domain becomes a process track
    (named ["machine/domain"]), each simulated thread a thread track;
    completed spans are rendered as per-stage slices on a dedicated
    ["spans"] track per machine.  Recording tracers only. *)

val hypercall_profile :
  t list -> (string * string * string * int * int) list
(** [(machine, domain, op, count, total_cost_ns)] rows for every
    ["hypercall.*"] operation charged, sorted by machine, domain, op.
    Exact even when the event buffer overflowed. *)

val breakdown : t list -> (string * (string * float list) list) list
(** Per span kind, per stage (first-seen order, ["TOTAL"] last): the
    attributed durations in ns of every completed span, ready for
    percentile math.  Recording tracers only. *)
