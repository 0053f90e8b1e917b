(** One runner per table and figure in the paper's evaluation (§5), plus
    the ablations of DESIGN.md.  Each returns rendered tables; [kite_ctl
    run] prints them and EXPERIMENTS.md records paper-vs-measured.

    [quick] scales down request counts / durations / image sizes for a
    fast smoke pass; the shape claims hold at either scale. *)

type outcome = {
  exp_id : string;
  tables : Kite_stats.Table.t list;
}

val fig1a : quick:bool -> outcome
(** Driver CVEs per year, Linux vs Windows. *)

val fig4a : quick:bool -> outcome
(** Syscall counts per domain flavor. *)

val fig4b : quick:bool -> outcome
(** Image sizes. *)

val fig4c : quick:bool -> outcome
(** Boot times, replayed on the simulator. *)

val fig5 : quick:bool -> outcome
(** ROP gadgets by category across kernel configurations (also Fig 1b). *)

val table3 : quick:bool -> outcome
(** CVEs mitigated by syscall removal. *)

val fig6 : quick:bool -> outcome
(** nuttcp UDP throughput. *)

val fig7 : quick:bool -> outcome
(** ping / netperf / memtier latency. *)

val fig8a : quick:bool -> outcome
(** Apache throughput vs file size. *)

val fig8b : quick:bool -> outcome
(** Apache at 512 KiB: throughput, transfer time, request rate. *)

val fig9 : quick:bool -> outcome
(** Redis pipelined SET/GET ops/s vs thread count. *)

val fig10 : quick:bool -> outcome
(** MySQL (network path): throughput vs threads, and DomU CPU
    utilization (10a + 10b). *)

val table4 : quick:bool -> outcome
(** Relative standard deviations over repeated runs. *)

val fig11 : quick:bool -> outcome
(** dd sequential read/write throughput. *)

val fig12 : quick:bool -> outcome
(** sysbench fileio vs threads (a) and block size (b). *)

val fig13 : quick:bool -> outcome
(** MySQL (storage path) throughput vs threads. *)

val fig14 : quick:bool -> outcome
(** filebench fileserver vs I/O size. *)

val fig15 : quick:bool -> outcome
(** filebench MongoDB personality. *)

val fig16 : quick:bool -> outcome
(** filebench webserver personality. *)

val dhcp : quick:bool -> outcome
(** perfdhcp against the unikernel DHCP daemon VM (§5.5). *)

val table1 : quick:bool -> outcome
(** The paper's LoC table mapped onto this repository's modules. *)

val abl_persistent : quick:bool -> outcome
val abl_batching : quick:bool -> outcome
val abl_indirect : quick:bool -> outcome
val abl_wake : quick:bool -> outcome

val mq_scale : quick:bool -> outcome
(** Multi-queue dataplane scaling: aggregate net Tx throughput over
    1/2/4/8 negotiated queues (driver domain vCPUs matched to the queue
    count). *)

val mq_run_gbps : duration:Kite_sim.Time.span -> mq:bool -> int -> float
(** One multi-queue throughput measurement: [mq_run_gbps ~duration ~mq n]
    is aggregate guest-Tx Gbps with [n] queues ([mq:false] forces the
    legacy flat layout; [n] must then be 1). *)

val latency_waterfall : quick:bool -> outcome
(** Critical-path attribution: the per-stage p50/p99 waterfall for the
    net and storage paths under open-loop load (stage durations sum to
    the end-to-end time within 1%, enforced), plus an offered-rate sweep
    over the measured storage capacity locating the saturation knee
    where queueing time overtakes service time (also enforced). *)

val swarm : quick:bool -> outcome
(** Open-loop client-population load (ROADMAP item 3): a six-figure
    headline campaign through Kite httpd reported against SLO targets,
    then offered-load sweeps past the knee for httpd and kvstore on both
    flavors.  The runner fails unless every flavor shows a saturation
    knee and the Kite flavor degrades gracefully past it (goodput
    plateau, bounded p999, zero request errors); where the Linux flavor
    collapses is recorded, not asserted. *)

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
    {!Kite_swarm.Profile.builtins} name, [rate] an optional session-rate
    override.  The [kite_ctl swarm] subcommand is a thin wrapper.
    Raises [Invalid_argument] on an unknown profile and [Failure] on an
    unknown app. *)

val all : (string * string * (quick:bool -> outcome)) list
(** (id, description, runner), in paper order then ablations. *)

val find : string -> (quick:bool -> outcome) option
