(** memtier_benchmark (§5.3.2, Figure 7): memcached SET/GET load at a
    1:10 ratio with 8 KiB values, reporting average operation latency. *)

type result = {
  ops : int;
  sets : int;
  gets : int;
  avg_latency_ms : float;
  ops_per_sec : float;
}

val run :
  sched:Kite_sim.Process.sched ->
  client_tcp:Kite_net.Tcp.t ->
  server_ip:Kite_net.Ipv4addr.t ->
  ?ops:int ->
  ?value_size:int ->
  ?clients:int ->
  ?seed:int ->
  on_done:(result -> unit) ->
  unit ->
  unit
(** Sets and gets in the ratio 1:10, to port 11211.  Defaults: 100 000 ops,
    8 KiB values, 4 connections. *)
