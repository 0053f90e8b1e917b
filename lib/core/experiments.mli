(** One runner per table and figure in the paper's evaluation (§5), plus
    the ablations of DESIGN.md.  Each returns rendered tables; [kite_ctl
    run] prints them and EXPERIMENTS.md records paper-vs-measured.

    [quick] scales down request counts / durations / image sizes for a
    fast smoke pass; the shape claims hold at either scale. *)

type outcome = { tables : Kite_stats.Table.t list }

val all : (string * string * (quick:bool -> outcome)) list
(** (id, description, runner), in paper order then ablations and
    extensions. *)

val find : string -> (string * string * (quick:bool -> outcome)) option
(** The registry entry of one experiment id. *)

val mq_run_gbps : duration:Kite_sim.Time.span -> mq:bool -> int -> float
(** One multi-queue throughput measurement: [mq_run_gbps ~duration ~mq n]
    is aggregate guest-Tx Gbps with [n] queues ([mq:false] forces the
    legacy flat layout; [n] must then be 1). *)

val swarm_campaign :
  ?flavor:Scenario.flavor ->
  ?app:string ->
  ?impair:Kite_net.Impair.spec ->
  ?profile:string ->
  ?clients:int ->
  ?rate:float ->
  ?seed:int ->
  unit ->
  Kite_swarm.Swarm.result
(** One swarm run on a fresh testbed: [app] is one of
    httpd/kvstore/memcache/sqldb, [profile] a
    {!Kite_swarm.Profile.names} name, [rate] an optional session-rate
    override.  The [kite_ctl swarm] subcommand is a thin wrapper.
    Raises [Invalid_argument] on an unknown profile and [Failure] on an
    unknown app. *)
