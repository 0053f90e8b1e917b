(** The hypervisor: the only trusted component of the stack.

    Owns the simulated machine — engine, scheduler, domains, the xenstore
    database, and the hypercall cost model.  All hypercall-shaped
    operations of the other modules go through {!hypercall} so that every
    experiment accounts hypercall counts and time uniformly.

    A domain's accounting cells (its vCPU busy time, its vCPU cursors and
    one cell per hypercall kind) live in an array indexed by domid, made
    on the domain's first charge: a charge builds, hashes and compares no
    string. *)

type t

(** The hypercalls the model issues. *)
type hypercall =
  | Grant_map
  | Grant_unmap
  | Grant_copy
  | Evtchn_send
  | Xenstore_op

val create : ?schedule_seed:int -> unit -> t
(** A fresh machine with an empty event queue, a Dom0, an empty
    xenstore and the {!Costs.default} cost model.  [schedule_seed]
    arms the engine's schedule explorer (see {!Kite_sim.Engine.create}):
    same-instant events run in a seed-determined random permutation
    instead of FIFO order. *)

val engine : t -> Kite_sim.Engine.t
val sched : t -> Kite_sim.Process.sched
val metrics : t -> Kite_sim.Metrics.t
val costs : t -> Costs.t
val store : t -> Xenstore.t

val now : t -> Kite_sim.Time.t

val set_trace : t -> Kite_trace.Trace.t option -> unit
(** Attach (or detach) an event tracer for this machine: {!hypercall} /
    {!cpu_work} emit cost events (which the tracer also passes to its
    CPU observer, the path engine's profile), and the scheduler's tracer
    is set so that processes spawned afterwards are tracked (see
    {!Kite_sim.Process.set_trace}).  [None] (the default) restores the
    uninstrumented behaviour. *)

val trace : t -> Kite_trace.Trace.t option
(** The currently attached tracer, for layers that hook their own
    events (event channels, rings, drivers). *)

val set_metrics : t -> Kite_metrics.Registry.t option -> unit
(** Attach (or detach) a metric registry for this machine.  Registers
    polled scheduler gauges (live processes, engine queue depth) and a
    per-domain vCPU busy-time counter for every current and future
    domain; all are closures read at sampling time, so the hot path is
    untouched. *)

val metrics_registry : t -> Kite_metrics.Registry.t option
(** The currently attached registry, for layers that register their own
    instruments (grant table, event channels, drivers). *)

val dom0 : t -> Domain.t

val create_domain :
  t -> name:string -> kind:Domain.kind -> vcpus:int -> mem_mb:int -> Domain.t

val domains : t -> Domain.t list
(** All domains, Dom0 first, then in creation order. *)

val find_domain : t -> int -> Domain.t option

val spawn :
  t -> Domain.t -> ?daemon:bool -> name:string -> (unit -> unit) -> unit
(** Start a process belonging to a domain; the process name is prefixed
    with the domain name for diagnostics.  [daemon] marks service loops
    the checker's quiescence report skips. *)

val hypercall : t -> Domain.t -> hypercall -> extra:Kite_sim.Time.span -> unit
(** [hypercall hv dom call ~extra] occupies [dom]'s earliest-free vCPU for
    [hypercall_base + extra] and counts the call in the counter
    ["hypercall.<op>"], where [<op>] is the call's name in lower case ([grant_map], [grant_unmap],
    [grant_copy], [evtchn_send], [xenstore_op]); an attached tracer
    charges the operation ["hypercall.<op>"]. *)

val cpu_work : t -> Domain.t -> Kite_sim.Time.span -> unit
(** Plain computation on the domain's vCPU (no hypercall counter). *)

val run : t -> unit
val run_for : t -> Kite_sim.Time.span -> unit
