type sched = {
  engine : Engine.t;
  mutable live : int;
  mutable check : Kite_check.Check.t option;
  mutable trace : Kite_trace.Trace.t option;
  mutable race : Kite_race.Race.t option;
}

exception Process_failure of string * exn

type _ Effect.t +=
  | Sleep : Time.span -> unit Effect.t
  | Yield : unit Effect.t
  | Suspend :
      (string option * (Engine.t -> (unit -> unit) -> unit))
      -> unit Effect.t

let scheduler engine =
  { engine; live = 0; check = None; trace = None; race = None }

let engine t = t.engine
let live t = t.live
let set_check t c = t.check <- c
let set_trace t tr = t.trace <- tr
let set_race t r = t.race <- r

let sleep span = Effect.perform (Sleep span)
let yield () = Effect.perform Yield
let suspend ?label register = Effect.perform (Suspend (label, register))

(* One process's identity and its handle with each sink: the sink's own
   record of the process, so a step, block or exit reaches it without a
   lookup.  Sink references are re-read from the scheduler at every
   engine-queue (re-)entry, and a handle serves the instance that made
   it: when the scheduler's sink is another, the handle is remade
   against the instance seen at that moment.  Attaching a checker,
   tracer or race detector mid-run therefore instruments already-running
   processes from their next step onward, and the sink it replaced sees
   them no more.  Events from before the attach are simply absent, as
   for any late observer. *)
type proc = {
  sched : sched;
  name : string;
  daemon : bool;
  mutable creg : (Kite_check.Check.t * Kite_check.Check.proc) option;
  mutable rreg : (Kite_race.Race.t * Kite_race.Race.proc) option;
  mutable treg : (Kite_trace.Trace.t * Kite_trace.Trace.proc) option;
  (* The continuation [wake] resumes: set when a wake is scheduled,
     cleared when it fires.  A process blocks on one operation at a time,
     so one cell and one thunk, built at spawn, serve every block. *)
  mutable cont : (unit, unit) Effect.Deep.continuation option;
  mutable wake : unit -> unit;
}

(* [@lint.guarded]: only reached through a Some-match on the sink. *)
let[@lint.guarded] check_proc p c =
  match p.creg with
  | Some (c', h) when c' == c -> h
  | _ ->
      let h = Kite_check.Check.proc_spawned c ~name:p.name ~daemon:p.daemon in
      p.creg <- Some (c, h);
      h

let[@lint.guarded] race_proc p r =
  match p.rreg with
  | Some (r', h) when r' == r -> h
  | _ ->
      let h = Kite_race.Race.proc_register r ~name:p.name in
      p.rreg <- Some (r, h);
      h

let trace_proc p tr =
  match p.treg with
  | Some (tr', h) when tr' == tr -> h
  | _ ->
      let h = Kite_trace.Trace.proc ~name:p.name in
      p.treg <- Some (tr, h);
      h

(* [eff] is the blocking operation.  Each armed sink's [kind] is built
   from it: the checker's is immediate for a sleep or a yield, and the
   tracer's [`Sleep span] is built only when a tracer is armed. *)
let blocked p (eff : unit Effect.t) =
  let t = p.sched in
  (match t.check with
  | Some c ->
      Kite_check.Check.proc_blocked c (check_proc p c)
        ~kind:
          (match eff with
          | Sleep _ -> `Sleep
          | Suspend (label, _) -> `Suspend label
          | _ -> `Yield)
  | None -> ());
  (match t.race with
  | Some r -> Kite_race.Race.proc_blocked r (race_proc p r)
  | None -> ());
  match t.trace with
  | Some tr ->
      Kite_trace.Trace.proc_blocked tr ~at:(Engine.now t.engine)
        (trace_proc p tr)
        ~kind:
          (match eff with
          | Sleep span -> `Sleep span
          | Suspend (label, _) -> `Suspend label
          | _ -> `Yield)
  | None -> ()

let leave check trace race =
  (match race with Some r -> Kite_race.Race.proc_leave r | None -> ());
  (match trace with Some tr -> Kite_trace.Trace.proc_leave tr | None -> ());
  match check with Some c -> Kite_check.Check.proc_leave c | None -> ()

(* Wrap every engine-queue (re-)entry of the process so the observers
   know which process events are attributed to. *)
let step p f () =
  let t = p.sched in
  match (t.check, t.trace, t.race) with
  | None, None, None -> f ()
  | check, trace, race -> (
      (match check with
      | Some c -> Kite_check.Check.proc_enter c (check_proc p c)
      | None -> ());
      (match trace with
      | Some tr -> Kite_trace.Trace.proc_enter tr (trace_proc p tr)
      | None -> ());
      (match race with
      | Some r -> Kite_race.Race.proc_enter r (race_proc p r)
      | None -> ());
      match f () with
      | () -> leave check trace race
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          leave check trace race;
          Printexc.raise_with_backtrace e bt)

let resume_cont p () =
  match p.cont with
  | Some k ->
      p.cont <- None;
      Effect.Deep.continue k ()
  | None -> assert false (* only [park] schedules [p.wake] *)

(* Resume the blocked process with [k] after [span], through [p.wake]. *)
let park p k span =
  p.cont <- Some k;
  ignore (Engine.schedule_after p.sched.engine span p.wake)

let exited p =
  let t = p.sched in
  (match t.check with
  | Some c -> Kite_check.Check.proc_exited c (check_proc p c)
  | None -> ());
  (match t.race with
  | Some r -> Kite_race.Race.proc_exited r (race_proc p r)
  | None -> ());
  match t.trace with
  | Some tr ->
      Kite_trace.Trace.proc_exited tr ~at:(Engine.now t.engine)
        (trace_proc p tr)
  | None -> ()

let spawn t ?(daemon = false) ~name body =
  t.live <- t.live + 1;
  let p =
    {
      sched = t;
      name;
      daemon;
      creg = None;
      rreg = None;
      treg = None;
      cont = None;
      wake = ignore;
    }
  in
  p.wake <- step p (resume_cont p);
  (* Register eagerly when sinks are already attached, so spawn order and
     the race detector's spawn edge are recorded at the true spawn
     instant (the spawner is still the current process here). *)
  (match t.check with Some c -> ignore (check_proc p c) | None -> ());
  (match t.race with Some r -> ignore (race_proc p r) | None -> ());
  (match t.trace with
  | Some tr ->
      Kite_trace.Trace.proc_spawned tr ~at:(Engine.now t.engine)
        (trace_proc p tr) ~daemon
  | None -> ());
  let run () =
    let open Effect.Deep in
    match_with body ()
      {
        retc =
          (fun () ->
            t.live <- t.live - 1;
            exited p);
        exnc =
          (fun e ->
            t.live <- t.live - 1;
            exited p;
            raise (Process_failure (name, e)));
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Sleep span ->
                Some
                  (fun (k : (a, _) continuation) ->
                    blocked p eff;
                    park p k span)
            | Yield ->
                Some
                  (fun (k : (a, _) continuation) ->
                    blocked p eff;
                    park p k 0)
            | Suspend (_, register) ->
                Some
                  (fun (k : (a, _) continuation) ->
                    blocked p eff;
                    (* [resume] re-enters through the event queue so that a
                       waker always finishes its step before the woken
                       process runs. *)
                    let resumed = ref false in
                    let resume () =
                      if !resumed then
                        invalid_arg "Process: double resume of a suspension";
                      resumed := true;
                      park p k 0
                    in
                    register t.engine resume)
            | _ -> None);
      }
  in
  ignore (Engine.schedule_after t.engine 0 (step p run))
