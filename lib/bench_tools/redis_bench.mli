(** redis-benchmark in pipeline mode (§5.3.4, Figure 9): per-connection
    pipelines of [pipeline] commands; SET and GET phases are measured
    separately, as the benchmark reports them. *)

type result = {
  set_ops_per_sec : float;
  get_ops_per_sec : float;
  total_ops : int;
}

val run :
  sched:Kite_sim.Process.sched ->
  client_tcp:Kite_net.Tcp.t ->
  server_ip:Kite_net.Ipv4addr.t ->
  ?pipeline:int ->
  ?ops_per_thread:int ->
  ?seed:int ->
  ?value_size:int ->
  threads:int ->
  on_done:(result -> unit) ->
  unit ->
  unit
(** Port 6379.  Defaults: pipeline 1000, 20 000 ops per thread, 64-byte
    values. *)
