(** The swarm: an open-loop population of simulated clients driving a
    server through the full split-driver path.

    Layered on {!Kite_bench_tools.Openloop}: each open-loop arrival is
    one {e session} — a client that connects, issues a profile-drawn
    number of requests with think time in between, and disconnects
    (connection churn).  The DES makes clients cheap (each is an event
    chain, not a thread), so populations of 10^5..10^6 distinct clients
    are practical; the ~28k ephemeral client ports bound concurrent
    connections, not totals, and recycle as sessions churn.

    Transport is abstracted behind a {!driver} so the same generator
    drives httpd/kvstore/memcache/sqldb over TCP or blkfront directly;
    wiring lives in [Kite.Experiments], keeping this library free of
    testbed dependencies.

    {2 Determinism}

    All randomness derives from [seed] via three private streams:
    session arrivals (through [Openloop]'s documented contract), session
    shapes (length / sizes / slowness, drawn in arrival order), and
    per-session think timing.  Link impairments draw from the NIC's own
    stream.  Hence the same seed yields the same arrival instants,
    offered totals, and SLO verdicts whether or not impairments or
    observability layers are enabled — and byte-identical results
    run-to-run. *)

type conn = {
  c_request : size:int -> slow:bool -> bool;
      (** issue one request of [size] bytes; [slow] asks for a
          drip-feed write.  Returns completion. *)
  c_close : unit -> unit;
}

type driver = {
  d_app : string;  (** label on the latency histogram, e.g. "httpd" *)
  d_connect : unit -> conn option;
      (** open a session; [None] (or an exception) counts the whole
          session as errored *)
}

val metric : string
(** ["kite_swarm_latency_ms"] — request latency in milliseconds,
    labelled [("app", ...)].  Slow drip-feed requests are excluded:
    their latency is by construction the drip schedule, not the
    server's. *)

type result = {
  sw_app : string;
  sw_profile : string;
  sw_clients : int;  (** sessions fired *)
  sw_offered : int;  (** requests offered (sum of session lengths) *)
  sw_completed : int;
  sw_errors : int;  (** [sw_completed + sw_errors = sw_offered] *)
  sw_elapsed : Kite_sim.Time.span;  (** first arrival to last close *)
  sw_goodput_rps : float;  (** completed requests per second of elapsed *)
  sw_p50_ms : float;
  sw_p99_ms : float;
  sw_p999_ms : float;  (** [nan] when nothing completed *)
  sw_slos : Kite_flight.Slo.eval list;
}

val run :
  sched:Kite_sim.Process.sched ->
  ?seed:int ->
  ?registry:Kite_metrics.Registry.t ->
  ?rate:float ->
  profile:Profile.t ->
  clients:int ->
  driver:driver ->
  on_done:(result -> unit) ->
  unit ->
  unit
(** Fire [clients] sessions of [profile] traffic (at [rate] sessions/s
    when given, else the profile's base rate) and call [on_done] once
    every session has drained.  Latency lands in {!metric} inside
    [registry] (default: a fresh private registry, so percentiles and
    SLO windows cover exactly this run) and is scored against SLOs armed
    at the start: p50 <= 2 ms, p99 <= 20 ms, p999 <= 100 ms.  Default
    [seed] 7. *)

val result_to_json : result -> string
