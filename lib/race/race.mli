(** Happens-before race and atomicity-violation detection.

    The simulation is single-threaded, so the detector does not look for
    data races in the memory-model sense: it finds *logical* concurrency
    bugs between cooperative processes.  Each process carries a sparse
    vector clock; synchronization primitives ([Mailbox] send→recv,
    [Condition] signal→wake, [Event_channel] notify→deliver, ring
    publish→take, xenstore write→read, [Process.spawn]) contribute
    happens-before edges as release/acquire channels.  Instrumented
    accesses to shared hot state are checked against the location's
    access history:

    - ["race-unordered"] (error): two accesses, at least one a write,
      with no happens-before path between them — a different schedule
      seed can execute them in either order;
    - ["race-lost-update"] (error): a process read a location, blocked,
      and wrote it back after another process modified it in between;
    - ["race-atomicity"] (warning): a read-modify-write spanning a
      blocking point without re-validation, even though nothing happened
      to interfere this run.

    Findings land in a shared {!Kite_check.Report}, with both access
    sites and (by default) both captured backtraces.

    Like the checker/tracer/fault layers, everything is zero-cost when
    disabled: modules holding a detector reference pay one option match,
    and the ambient [scoped_*] hooks used by [Condition]/[Mailbox]/
    [Page] pay one global ref read. *)

type t
(** One detector instance, normally one per simulated machine.  Each
    finding carries both accesses' backtraces (12 frames), and one
    location reports at most 4 findings, so a hot loop cannot flood the
    report. *)

val create : ?name:string -> Kite_check.Report.t -> t

(** {1 Process lifecycle} — called by [Process]'s instrumentation. *)

type proc
(** The detector's handle on one process: its pid slot, vector clock
    and atomicity epoch, and whether it has exited.  [Process] keeps it,
    so a step or block finds its process without a lookup.  A handle
    serves the detector that made it. *)

val proc_register : t -> name:string -> proc
(** Register a process and return its handle.  The child's clock
    inherits the spawner's (the spawn edge); registration from outside
    any process inherits from the setup pseudo-process [@main].  The
    pid slot is one an exited process freed, if any, with its own clock
    component started above that process's last. *)

val proc_enter : t -> proc -> unit
(** The process starts (or resumes) a step: subsequent accesses and
    edges are attributed to it. *)

val proc_leave : t -> unit

val proc_blocked : t -> proc -> unit
(** The process hit a blocking point; bumps its atomicity epoch. *)

val proc_exited : t -> proc -> unit
(** Releases the process's clock into the ["@exit"] channel and frees
    its pid slot for reuse. *)

val irq_enter : t -> unit
(** Enter interrupt context (event-channel delivery): accesses attribute
    to [@main] but ambient hooks become live, so conditions signalled
    from the handler propagate the sender's clock. *)

val irq_leave : t -> unit

(** {1 Happens-before edges} *)

val hb_release : t -> chan:string -> unit
(** Publish the current process's clock into the named channel and tick. *)

val hb_acquire : t -> chan:string -> unit
(** Join the named channel's clock into the current process's. *)

(** {1 Instrumented accesses} *)

val read_acc : ?arm:bool -> t -> loc:string -> site:string -> unit
(** Record a read of [loc].  [arm] (default [true]) additionally arms
    the read-modify-write atomicity check: a later write of [loc] by the
    same process across a blocking point reports ["race-atomicity"] (or
    ["race-lost-update"] if someone else wrote in between).  Pass
    [~arm:false] for bulk data locations (page payloads) where
    concurrent rewrite is last-write-wins application semantics. *)

val write_acc : t -> loc:string -> site:string -> unit

(** {1 Ambient variants}

    For modules that have no detector handle ([Condition], [Mailbox],
    [Page]): they act on whichever detector currently has a process (or
    interrupt) in scope, and are no-ops otherwise.  [active] lets hot
    paths skip building location strings when no detector is live. *)

val active : unit -> bool
val scoped_release : chan:string -> unit
val scoped_acquire : chan:string -> unit
val scoped_read : ?arm:bool -> loc:string -> site:string -> unit -> unit
val scoped_write : loc:string -> site:string -> unit
val scoped_quiesce : unit -> unit

(** {1 Xenstore nodes}

    Store nodes are modelled as release/acquire channels — frontends
    poll state nodes concurrently with writers by design — plus a
    per-path write-generation check that turns read → block → write-back
    into ["race-lost-update"] when the node changed in between.  A
    conflicting transaction commit never applies its writes, so
    transactional users are never flagged. *)

val xs_read : t -> path:string -> unit
val xs_write : t -> path:string -> unit

(** {1 Shared rings}

    Per-side release/acquire channels for publish→take, per-slot access
    locations, and a consumer-cursor back-channel modelling the
    producer's ring-full check.  Re-attaching a ring under a name the
    detector has already seen (a reconnect cycle) gets a fresh
    generation of locations.  The
    notification thresholds are deliberately not instrumented: they are
    racy by design, with the final-check dance making the race benign. *)

type ring

val ring : t -> name:string -> size:int -> ring
val ring_push : ring -> [ `Req | `Rsp ] -> slot:int -> unit
val ring_publish : ring -> [ `Req | `Rsp ] -> unit
val ring_take : ring -> [ `Req | `Rsp ] -> got:bool -> slot:int -> unit

(** {1 Run-wide sink}

    Mirrors [Kite_trace.Trace]: scenario helpers consult the default
    sink and create one member detector per simulated machine, all
    feeding one report. *)

type sink

val sink : ?report:Kite_check.Report.t -> unit -> sink
val create_in : sink -> name:string -> t

val set_default : sink option -> unit
(** Install (or clear) the run-wide default sink, written by [Kite.Obs.run]
    and consulted by [Scenario.arm]. *)

val default : unit -> sink option
