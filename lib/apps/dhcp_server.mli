(** The unikernelized OpenDHCP daemon VM (§5.5).

    Answers Discover with Offer and Request with Ack, allocating leases
    from a pool.  The paper's Table 1 notes that unikernelizing OpenDHCP
    took 16 lines of changes; here it is an ordinary application over the
    UDP socket API. *)

type t

val start :
  Kite_net.Stack.t ->
  sched:Kite_sim.Process.sched ->
  server_ip:Kite_net.Ipv4addr.t ->
  pool_start:Kite_net.Ipv4addr.t ->
  pool_size:int ->
  ?cpu_per_message:Kite_sim.Time.span ->
  unit ->
  t
(** Binds UDP port 67.  Leases last 3600 s; 25 us per message by
    default. *)

val offers : t -> int
val acks : t -> int
val naks : t -> int
val active_leases : t -> int
