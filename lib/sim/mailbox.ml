type 'a t = { q : 'a Queue.t; nonempty : Condition.t; chan : string }

let next_id = ref 0

let create ?label () =
  let id = !next_id in
  incr next_id;
  let chan =
    match label with
    | Some l -> Printf.sprintf "mbox:%d:%s" id l
    | None -> Printf.sprintf "mbox:%d" id
  in
  { q = Queue.create (); nonempty = Condition.create ?label (); chan }

let send t v =
  (* Send-to-receive happens-before edge: whoever dequeues this message
     is ordered after everything the sender published before sending. *)
  Kite_race.Race.scoped_release ~chan:t.chan;
  Queue.push v t.q;
  Condition.signal t.nonempty

let rec recv t =
  match Queue.take_opt t.q with
  | Some v ->
      Kite_race.Race.scoped_acquire ~chan:t.chan;
      v
  | None ->
      Condition.wait t.nonempty;
      recv t

let rec recv_timeout t span =
  match Queue.take_opt t.q with
  | Some v ->
      Kite_race.Race.scoped_acquire ~chan:t.chan;
      Some v
  | None -> (
      match Condition.timed_wait t.nonempty span with
      | `Timeout -> recv_now t
      | `Signaled ->
          (* A competing receiver may have taken the message; retry with the
             full span only if something is queued, otherwise report empty.
             Retrying with the original span would be unbounded under
             contention; in this cooperative setting a single re-check
             suffices because sends wake exactly one receiver. *)
          recv_now t)

and recv_now t =
  match Queue.take_opt t.q with
  | Some v ->
      Kite_race.Race.scoped_acquire ~chan:t.chan;
      Some v
  | None -> None

let length t = Queue.length t.q
