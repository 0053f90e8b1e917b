(* The run's observability context.  [install] is the one writer of the
   seven layers' default refs; [current] reads them back.  The refs stay
   because perfbench arms its sinks through them directly (DESIGN §22). *)

type t = {
  check : Kite_check.Report.t option;
  race : Kite_race.Race.sink option;
  trace : Kite_trace.Trace.sink option;
  fault : Kite_fault.Fault.sink option;
  metrics : Kite_metrics.Registry.sink option;
  path : Kite_path.Path.sink option;
  flight : Kite_flight.Flight.sink option;
  schedule_seed : int option;
}

let none =
  {
    check = None;
    race = None;
    trace = None;
    fault = None;
    metrics = None;
    path = None;
    flight = None;
    schedule_seed = None;
  }

let schedule_seed = ref None

let current () =
  {
    check = Option.map snd (Kite_check.Check.default ());
    race = Kite_race.Race.default ();
    trace = Kite_trace.Trace.default ();
    fault = Kite_fault.Fault.default ();
    metrics = Kite_metrics.Registry.default ();
    path = Kite_path.Path.default ();
    flight = Kite_flight.Flight.default ();
    schedule_seed = !schedule_seed;
  }

let install t =
  Kite_check.Check.set_default
    (Option.map (fun r -> (Kite_check.Check.default_config, r)) t.check);
  Kite_race.Race.set_default t.race;
  Kite_trace.Trace.set_default t.trace;
  Kite_fault.Fault.set_default t.fault;
  Kite_metrics.Registry.set_default t.metrics;
  Kite_path.Path.set_default t.path;
  Kite_flight.Flight.set_default t.flight;
  schedule_seed := t.schedule_seed

(* Machines built since the outermost run began: a run installed over a
   context that arms nothing starts the count again; a nested one
   continues it, so names stay unique in every sink the two share. *)
let machines = ref 0

let arms_nothing t =
  t.check = None && t.race = None && t.trace = None && t.fault = None
  && t.metrics = None && t.path = None && t.flight = None

let run t f =
  let saved = current () in
  if arms_nothing saved then machines := 0;
  install t;
  Fun.protect ~finally:(fun () -> install saved) f

let machine () =
  incr machines;
  !machines

let ensure s fresh = match s with Some _ -> s | None -> Some (fresh ())
