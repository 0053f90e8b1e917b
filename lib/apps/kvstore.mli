(** A Redis-style in-memory key/value store (§5.3.4).

    Line-oriented protocol that pipelines naturally over one TCP stream:

    - ["SET <key> <len>\n<len bytes>"] -> ["+OK\n"]
    - ["GET <key>\n"] -> ["$<len>\n<len bytes>"] or ["$-1\n"]

    redis-benchmark drives it in pipeline mode with 1000 in-flight
    commands. *)

type t

val start :
  Kite_net.Tcp.t ->
  sched:Kite_sim.Process.sched ->
  unit ->
  t
(** Port 6379, 2 us per operation. *)

val sets : t -> int
val gets : t -> int
val keys : t -> int
