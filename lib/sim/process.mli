(** Cooperative processes over the simulation engine.

    Processes model the threads of the simulated OSs — in particular
    rumprun's non-preemptive BMK threads, whose cooperative behaviour is
    central to Kite's netback/blkback design.  A process runs until it
    performs a blocking operation ([sleep], [yield], [suspend] or a wait on
    a {!Condition}/{!Mailbox}); it is then resumed through the engine's
    event queue, keeping execution deterministic.

    Implemented with OCaml 5 effect handlers; the blocking operations may
    only be called from inside a process body. *)

type sched

val scheduler : Engine.t -> sched
(** A scheduler bound to an engine.  Several schedulers may share one
    engine (e.g. one per simulated machine). *)

val engine : sched -> Engine.t

val set_check : sched -> Kite_check.Check.t option -> unit
(** Attach (or detach) an invariant checker.  Attachment is dynamic:
    already-running processes register with the new instance at their
    next step, so mid-run attachment instruments everything (events from
    before the attach are simply absent).  With [None] (the default) the
    scheduler runs exactly as before. *)

val set_trace : sched -> Kite_trace.Trace.t option -> unit
(** Attach (or detach) an event tracer.  Same dynamic-attach semantics
    as {!set_check}: processes record spawn/block/exit events and
    attribute in-process events (hypercalls, driver milestones, and the
    CPU charges the tracer passes to a path engine) to their track from
    the moment a tracer is present; with [None] the scheduler runs
    exactly as before. *)

val set_race : sched -> Kite_race.Race.t option -> unit
(** Attach (or detach) a happens-before race detector.  Processes get a
    vector clock with a spawn edge from their spawner, bump their
    atomicity epoch at every blocking point, and scope their accesses to
    the detector while running.  Same dynamic-attach semantics as
    {!set_check}. *)

val spawn : sched -> ?daemon:bool -> name:string -> (unit -> unit) -> unit
(** [spawn sched ~name body] starts a process at the current instant.
    [name] appears in the error raised if [body] raises.  [daemon]
    (default false) marks service loops that legitimately stay blocked
    forever, so the checker's quiescence/deadlock report skips them. *)

val live : sched -> int
(** Number of spawned processes that have not yet terminated. *)

exception Process_failure of string * exn
(** [(process name, original exception)] — raised out of the engine loop
    when a process body raises. *)

(** {1 Blocking operations (process context only)} *)

val sleep : Time.span -> unit
(** Block for a simulated duration. *)

val yield : unit -> unit
(** Reschedule at the current instant, letting other runnable processes
    execute first.  This is the explicit CPU-yield that Kite's
    orchestration applications perform to avoid monopolizing the
    cooperative scheduler. *)

val suspend : ?label:string -> (Engine.t -> (unit -> unit) -> unit) -> unit
(** [suspend register] blocks the current process; [register] is called
    with the engine and a one-shot [resume] closure that makes the process
    runnable again at the instant [resume] is invoked.  Building block for
    {!Condition} and {!Mailbox}.  [label] names what is being waited on in
    the checker's deadlock report. *)
