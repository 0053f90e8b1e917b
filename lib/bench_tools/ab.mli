(** ApacheBench (§5.3.3, Figure 8): [requests] keep-alive GETs for a file
    of [file_size] bytes spread over [concurrency] connections. *)

type result = {
  completed : int;
  time_taken_s : float;
  requests_per_sec : float;
  throughput_mbps : float;  (** payload MB/s, ab's "Transfer rate" *)
  avg_latency_ms : float;
}

val run :
  sched:Kite_sim.Process.sched ->
  client_tcp:Kite_net.Tcp.t ->
  server_ip:Kite_net.Ipv4addr.t ->
  ?requests:int ->
  ?concurrency:int ->
  ?seed:int ->
  file_size:int ->
  on_done:(result -> unit) ->
  unit ->
  unit
(** Port 80.  Defaults: 10 000 requests, 40 concurrent (the paper uses
    100 000; scale via [requests]). *)
