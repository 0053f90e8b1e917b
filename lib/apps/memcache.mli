(** A Memcached-style cache speaking the classic text protocol subset
    memtier exercises (§5.3.2):

    - ["set <key> <flags> <exptime> <bytes>\r\n<data>\r\n"] -> ["STORED\r\n"]
    - ["get <key>\r\n"] ->
      ["VALUE <key> <flags> <bytes>\r\n<data>\r\nEND\r\n"] or ["END\r\n"] *)

type t

val start :
  Kite_net.Tcp.t ->
  sched:Kite_sim.Process.sched ->
  unit ->
  t
(** Port 11211, 2 us per operation. *)

val gets : t -> int
val hits : t -> int
