(** sysbench OLTP against the {!Kite_apps.Sqldb} server (Figures 10, 13).

    Each transaction issues the classic oltp_read_only mix: 10 point
    selects, 4 range queries of 100 rows (one simple, one SUM, one ORDER,
    one DISTINCT-alike), wrapped in BEGIN/COMMIT. *)

type result = {
  transactions : int;
  queries : int;
  tps : float;
  qps : float;
  avg_latency_ms : float;
}

val run :
  sched:Kite_sim.Process.sched ->
  client_tcp:Kite_net.Tcp.t ->
  server_ip:Kite_net.Ipv4addr.t ->
  ?tables:int ->
  ?rows_per_table:int ->
  ?transactions_per_thread:int ->
  ?range_size:int ->
  threads:int ->
  seed:int ->
  on_done:(result -> unit) ->
  unit ->
  unit
(** Port 3306.  Defaults: 10 tables of 1 M rows addressed, 50 transactions
    per thread, ranges of 100 rows.  sysbench's own per-query
    client-side work is 500 us, charged per transaction as 7x that;
    worker starts are staggered by [seed]. *)
