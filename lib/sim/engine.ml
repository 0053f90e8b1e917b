(* An event is one [Heap] node: instant, explorer priority, sequence
   number, thunk and slot.  Cancelling removes it from the queue at once,
   so the queue holds live events only and firing allocates nothing. *)
type handle = (unit -> unit) Heap.node

type t = {
  mutable clock : Time.t;
  queue : (unit -> unit) Heap.t;
  (* Schedule explorer: when armed, every event draws a random secondary
     priority, so events scheduled for the same instant execute in a
     seed-determined random permutation instead of FIFO order (a
     PCT-style priority assignment).  Each seed is one reproducible
     interleaving; sweeping seeds with the checker and race detector as
     oracles surfaces ordering bugs the FIFO schedule can never hit. *)
  explore : Rng.t option;
  (* Set by [stop]; the run loops check it after every event. *)
  mutable stopped : bool;
}

let create ?schedule_seed () =
  {
    clock = Time.zero;
    queue = Heap.create ();
    explore = Option.map Rng.create schedule_seed;
    stopped = false;
  }

let now t = t.clock

let schedule_at t when_ f =
  if when_ < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: %d is in the past (now %d)" when_
         t.clock);
  match t.explore with
  | None -> Heap.add t.queue ~key:when_ f
  | Some rng -> Heap.add t.queue ~key:when_ ~prio:(Rng.int rng 0x40000000) f

let schedule_after t span f = schedule_at t (t.clock + span) f

let cancel = Heap.remove
let cancelled = Heap.removed

let fire t h =
  t.clock <- Heap.key h;
  Heap.value h ()

let stop t = t.stopped <- true

let run t =
  t.stopped <- false;
  while (not t.stopped) && not (Heap.is_empty t.queue) do
    fire t (Heap.take t.queue)
  done

let run_until t limit =
  t.stopped <- false;
  while
    (not t.stopped)
    && (not (Heap.is_empty t.queue))
    && Heap.key (Heap.top t.queue) <= limit
  do
    fire t (Heap.take t.queue)
  done;
  if (not t.stopped) && t.clock < limit then t.clock <- limit

let run_for t span = run_until t (t.clock + span)

let pending t = Heap.size t.queue
