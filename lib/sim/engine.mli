(** Discrete-event simulation engine.

    The engine owns the simulated clock and an event queue.  Events are
    thunks executed at a scheduled instant; among events scheduled for the
    same instant, execution follows scheduling order, so runs are fully
    deterministic.  The queue holds live events only: a cancelled event
    leaves it at once, so most timers (armed, then cancelled long before
    their instant) cost the queue nothing after [cancel].

    With [?schedule_seed] the engine becomes a seeded schedule explorer:
    each event draws a random secondary priority (PCT-style), so
    same-instant events execute in a seed-determined random permutation
    rather than FIFO order.  Runs remain fully deterministic per seed —
    the heap's (key, prio, insertion-order) comparison is total — so any
    interleaving bug a sweep surfaces is reproducible from its seed. *)

type t

type handle
(** A scheduled event; can be cancelled before it fires.  One record per
    event (instant, explorer priority, sequence number, thunk and queue
    slot): scheduling allocates nothing else, and firing nothing at all. *)

val create : ?schedule_seed:int -> unit -> t
(** [create ?schedule_seed ()]: with a seed, arm the schedule explorer;
    without, keep the deterministic FIFO order at equal instants. *)

val now : t -> Time.t
(** Current simulated time. *)

val schedule_at : t -> Time.t -> (unit -> unit) -> handle
(** [schedule_at t when_ f] runs [f] at instant [when_].  Scheduling in the
    past raises [Invalid_argument]. *)

val schedule_after : t -> Time.span -> (unit -> unit) -> handle
(** [schedule_after t span f] runs [f] [span] nanoseconds from now. *)

val cancel : handle -> unit
(** Cancel a pending event: it is removed from the queue at once and
    never fires.  That takes O(1) when it is the queue's held minimum
    (it was due before every queued event when scheduled, and no earlier
    event has been scheduled since) and O(log n) otherwise.  Cancelling
    a fired or already-cancelled event is a no-op. *)

val cancelled : handle -> bool
(** Whether [cancel] has been called on the event (even after it fired). *)

val stop : t -> unit
(** Make the current {!run} or {!run_until} return once the event that
    called [stop] has finished, with the clock at that event's instant
    and every later event still queued.  Each run starts unstopped, so
    the next one resumes them in order; outside a run [stop] does
    nothing. *)

val run : t -> unit
(** Execute events until the queue is empty or an event calls {!stop}.
    The clock is left at the last fired event's instant: cancelled
    events do not move it. *)

val run_until : t -> Time.t -> unit
(** Execute events with timestamps <= the given instant; afterwards the
    clock reads exactly that instant, unless an event called {!stop},
    which leaves it at that event's instant. *)

val run_for : t -> Time.span -> unit
(** [run_for t span] is [run_until t (now t + span)]. *)

val pending : t -> int
(** Number of live events still queued: scheduled, neither fired nor
    cancelled.  Zero means nothing can wake a blocked process any more. *)
