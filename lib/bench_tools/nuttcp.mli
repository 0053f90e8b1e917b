(** nuttcp (§5.3.1, Figure 6): UDP throughput with paced offered load.

    The receiver counts datagrams; the sender paces [offered_gbps] of
    8 KiB datagrams for [duration] — writes that IP fragments across the
    1500-byte MTU, matching the paper's "8KB of buffer size".  Loss is
    whatever the path (NIC queues, Rx-ring exhaustion, reassembly)
    drops. *)

type result = {
  sent : int;
  received : int;
  throughput_gbps : float;
  loss_pct : float;
}

val run :
  sched:Kite_sim.Process.sched ->
  client:Kite_net.Stack.t ->
  server:Kite_net.Stack.t ->
  server_ip:Kite_net.Ipv4addr.t ->
  ?port:int ->
  ?offered_gbps:float ->
  duration:Kite_sim.Time.span ->
  on_done:(result -> unit) ->
  unit ->
  unit
(** Spawns sender and receiver; [on_done] fires one drain-interval after
    the sending stops.  Defaults: port 5001, 7.0 Gbps offered. *)
