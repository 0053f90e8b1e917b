(** Open-loop load generator for the latency-waterfall and swarm
    experiments: fire requests on a Poisson arrival process at a
    configurable offered rate, independent of completions.  Unlike the
    closed-loop tools (ab, memtier, ...), which wait for each response and
    therefore self-throttle at saturation, an open-loop generator keeps
    offering load past the service capacity — the regime where queueing
    delay overtakes service time and the saturation knee appears.

    Optionally a burst of [burst] back-to-back arrivals is injected every
    [burst_every] to probe transient queue buildup below the knee.

    {2 Determinism contract}

    The arrival instants are a pure function of the arrival stream
    ([rng], or [Rng.create seed] when absent), [rate] and [duration] —
    nothing else ever draws from that stream.  Bursts draw their phase
    jitter from a separate stream derived from [seed] alone, so enabling
    or disabling bursts, link impairments, observability layers, or
    anything [fire] does cannot shift the base arrival times under the
    same seed.  A caller that passes an explicit [rng] still gets its
    burst jitter from [seed]'s stream. *)

type result = {
  offered : int;  (** arrivals fired *)
  completed : int;  (** [fire] calls that returned [true] *)
  elapsed : Kite_sim.Time.span;  (** generator start to last completion *)
}

val run :
  sched:Kite_sim.Process.sched ->
  ?rng:Kite_sim.Rng.t ->
  ?burst:int ->
  ?burst_every:Kite_sim.Time.span ->
  ?gap:(Kite_sim.Rng.t -> at:Kite_sim.Time.span -> Kite_sim.Time.span) ->
  ?stop_after:int ->
  rate:float ->
  duration:Kite_sim.Time.span ->
  fire:(int -> bool) ->
  on_done:(result -> unit) ->
  unit ->
  unit
(** [run ~sched ~rate ~duration ~fire ~on_done ()] spawns a generator
    process that draws exponential inter-arrival gaps with mean
    [1/rate] seconds (i.e. [rate] is the offered rate in requests per
    second) for [duration] of simulated time.  Each arrival spawns its
    own process calling [fire seq] — so a slow request never blocks the
    arrival process, which is the whole point.  [fire] returns whether
    the request completed.  [on_done] runs once every spawned request
    has returned.  Bursts, when enabled, run as their own process on the
    lattice [t0 + k*burst_every] (phase-jittered up to 10% of the
    period) and fire [burst] extra arrivals each.  The burst stream, and
    the arrival stream when no [rng] is given, are seeded from 42.
    Default: no bursts.

    [gap], when given, replaces the exponential draw: it receives the
    arrival stream and the offset since the generator started, and
    returns the next inter-arrival gap — the hook the swarm harness uses
    for heavy-tailed and time-modulated (diurnal / flash-crowd) traffic.
    [stop_after] caps the number of base arrivals (bursts excluded);
    generation stops at whichever of [duration] / [stop_after] comes
    first. *)
