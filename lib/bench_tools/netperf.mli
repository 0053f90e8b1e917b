(** netperf UDP request/response (§5.3.2, Figure 7): a fixed request rate
    with evenly spaced requests — 1000 req/s in the paper, which keeps the
    driver domain warm between requests. *)

type result = {
  requests : int;
  responses : int;
  latencies_ms : float list;
  avg_ms : float;
}

val run :
  sched:Kite_sim.Process.sched ->
  client:Kite_net.Stack.t ->
  server:Kite_net.Stack.t ->
  server_ip:Kite_net.Ipv4addr.t ->
  ?rate_per_sec:int ->
  ?requests:int ->
  on_done:(result -> unit) ->
  unit ->
  unit
(** Port 12865, 64-byte payloads.  Defaults: 1000 req/s, 1000
    requests. *)
