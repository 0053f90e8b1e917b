(** The run's observability context: what a run arms.

    One record names the checker report and the six other sinks (race,
    trace, fault, metrics, path, flight) plus the schedule-exploration
    seed.  {!run} is the only place that installs one; {!Scenario.arm}
    reads the installed record whenever it builds a machine, so every
    testbed built inside [run t f] carries [t]'s members.  The seven
    layers' [default] refs are the transport between the two (DESIGN
    §22). *)

type t = {
  check : Kite_check.Report.t option;
      (** Every machine gets a protocol checker (default config)
          reporting here. *)
  race : Kite_race.Race.sink option;
  trace : Kite_trace.Trace.sink option;
  fault : Kite_fault.Fault.sink option;
  metrics : Kite_metrics.Registry.sink option;
  path : Kite_path.Path.sink option;
      (** Each machine's engine taps the machine's tracer for its spans
          and CPU charges, so without a [trace] sink it sees nothing. *)
  flight : Kite_flight.Flight.sink option;
  schedule_seed : int option;
      (** When set, every testbed engine randomizes the order of
          same-instant events from this seed (PCT-style), so sweeps
          rerun one workload under many interleavings.  [None] keeps the
          deterministic FIFO order. *)
}

val none : t
(** Nothing armed, FIFO schedule. *)

val current : unit -> t
(** The installed record ({!none} outside any {!run}). *)

val run : t -> (unit -> 'a) -> 'a
(** [run t f] installs [t] for the length of [f ()], then puts the
    previous record back, also when [f] raises.  Nests: an experiment
    that arms a private sink runs [run { (current ()) with ... }]. *)

val machine : unit -> int
(** The number of the machine being built: 1 for the first machine since
    the outermost {!run} began, then 2, ...  A {!run} installed over a
    context that arms nothing starts the count again; a nested one (an
    experiment arming private sinks) continues it.  {!Scenario.arm}
    names every member of the machine [<tag><k>] from it. *)

val ensure : 'a option -> (unit -> 'a) -> 'a option
(** [ensure s fresh] is [s] when set, else [Some (fresh ())]: arm a sink
    only where the enclosing run left it unarmed. *)
