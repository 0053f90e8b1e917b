(** Named counters and time accounting for a simulation run.

    One [Metrics.t] per machine collects the hypercall counts
    (["hypercall.<op>"]) and each domain's vCPU busy time
    (["vcpu.<domain>"], used for the CPU utilization figures).  Writers
    hold a handle on one named cell; readers look cells up by name. *)

type t

val create : unit -> t

type counter
(** A handle on one named counter or busy-time cell, for hot paths that
    update the same name per event: the name is hashed once, not per
    update.  The cell enters the table on the handle's first {!bump}, so
    {!names} and {!busy_names} list only touched cells; handles of the
    same name share one cell. *)

val counter : t -> string -> counter
(** The {!count} cell of that name. *)

val busy_counter : t -> string -> counter
(** The {!busy} cell of that name. *)

val bump : counter -> int -> unit
(** Add [n] to the handle's cell (a busy-time cell counts simulated ns). *)

val count : t -> string -> int
(** [count t name] is the accumulated value; 0 if never touched. *)

val busy : t -> string -> Time.span
(** Accumulated busy time of the named resource; 0 if never touched. *)

val names : t -> string list
(** Counter names, sorted, each once.  Busy-time names live in their own
    namespace — see {!busy_names}. *)

val busy_names : t -> string list
(** Busy-time resource names, sorted, each once. *)
