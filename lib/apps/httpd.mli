(** An Apache-style HTTP/1.1 file server (§5.3.3).

    Serves deterministically generated content: a request for
    ["/data/<n>"] returns [n] bytes.  Supports keep-alive, which
    ApacheBench uses to issue its 100 k requests over pooled
    connections. *)

type t

val start :
  Kite_net.Tcp.t ->
  ?metrics:Kite_metrics.Registry.sink ->
  sched:Kite_sim.Process.sched ->
  unit ->
  t
(** Listen on port 80.  Each request costs 40 us of server-side
    processing, an httpd-ish figure.  When [metrics] is
    given, [GET /metrics] answers with the Prometheus text exposition of
    every registry in the sink (and the server registers its own
    [kite_httpd_*] counters there); without it the route is a 404. *)

val requests_served : t -> int
val bytes_served : t -> int

val path_for : int -> string
(** The URL path that yields a body of the given size. *)
