type waiter = { mutable live : bool; resume : unit -> unit }

type t = { q : waiter Queue.t; label : string option; chan : string }

(* Unique per condition so race-detector channels never collide; the
   counter is global state but only names channels, so determinism is
   unaffected. *)
let next_id = ref 0

let create ?label () =
  let id = !next_id in
  incr next_id;
  let chan =
    match label with
    | Some l -> Printf.sprintf "cond:%d:%s" id l
    | None -> Printf.sprintf "cond:%d" id
  in
  { q = Queue.create (); label; chan }

let wait t =
  Process.suspend ?label:t.label (fun _eng resume ->
      Queue.push { live = true; resume } t.q);
  (* Signal-to-wake happens-before edge: the woken process is ordered
     after everything the signaller (or broadcaster) published. *)
  Kite_race.Race.scoped_acquire ~chan:t.chan

let timed_wait t span =
  let outcome = ref `Timeout in
  Process.suspend ?label:t.label (fun eng resume ->
      (* Whichever of the timer and the signal fires first claims the
         suspension; the loser is disarmed so it can neither resume the
         process twice nor swallow a signal meant for another waiter. *)
      let fired = ref false in
      let fire o =
        if not !fired then begin
          fired := true;
          outcome := o;
          resume ()
        end
      in
      let timer = ref None in
      let w =
        {
          live = true;
          resume =
            (fun () ->
              (match !timer with Some h -> Engine.cancel h | None -> ());
              fire `Signaled);
        }
      in
      timer :=
        Some
          (Engine.schedule_after eng span (fun () ->
               w.live <- false;
               fire `Timeout));
      Queue.push w t.q);
  (* A timeout establishes no ordering: only an actual signal carries the
     signaller's clock to the woken process. *)
  if !outcome = `Signaled then Kite_race.Race.scoped_acquire ~chan:t.chan;
  !outcome

let rec wake_one t =
  match Queue.take_opt t.q with
  | None -> ()
  | Some w ->
      if w.live then begin
        w.live <- false;
        w.resume ()
      end
      else wake_one t

let signal t =
  (* Release even with no waiter queued: a process that starts waiting
     later is still ordered after state published before this signal
     (the next signal re-releases a superset clock anyway). *)
  Kite_race.Race.scoped_release ~chan:t.chan;
  wake_one t

let broadcast t =
  Kite_race.Race.scoped_release ~chan:t.chan;
  (* Snapshot: processes woken by this broadcast that immediately re-wait
     must not be woken again by the same call. *)
  let n = Queue.length t.q in
  for _ = 1 to n do
    match Queue.take_opt t.q with
    | None -> ()
    | Some w ->
        if w.live then begin
          w.live <- false;
          w.resume ()
        end
  done
