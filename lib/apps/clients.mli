(** Client-side protocol drivers for the servers in this library.

    The closed-loop bench tools (ab, memtier, ...) each embed their own
    request loop; the swarm harness instead needs one request at a time
    behind a uniform face, so it can mix apps, sizes and drip-feed
    clients under a single traffic profile.  A {!session} is one live
    connection; [request] issues one operation of roughly [size] bytes
    and returns whether the server answered it correctly.

    [slow] asks for a drip-feed write: the request bytes go out in 8
    pieces, 2 ms apart — the slowloris shape that
    ties up a server accept slot for seconds.  Servers must keep serving
    everyone else while these dribble in. *)

type session = {
  request : size:int -> slow:bool -> bool;
  close : unit -> unit;
}

val httpd :
  Kite_net.Tcp.t ->
  dst:Kite_net.Ipv4addr.t ->
  unit ->
  session
(** [GET /data/<size>] over one keep-alive connection to port 80; checks
    the body arrives in full. *)

val kvstore :
  Kite_net.Tcp.t ->
  dst:Kite_net.Ipv4addr.t ->
  key:string ->
  unit ->
  session
(** First request [SET key <size bytes>], subsequent ones [GET key];
    checks replies parse and the value comes back.  Port 6379. *)

val memcache :
  Kite_net.Tcp.t ->
  dst:Kite_net.Ipv4addr.t ->
  key:string ->
  unit ->
  session
(** [set]/[get] text protocol, same shape as {!kvstore}.  Port 11211. *)

val sqldb :
  Kite_net.Tcp.t ->
  dst:Kite_net.Ipv4addr.t ->
  table:int ->
  row:int ->
  unit ->
  session
(** Point selects ([PSELECT]) walking rows from [row]; [size] scales up
    into [RANGE] scans for large requests.  Port 3306. *)
