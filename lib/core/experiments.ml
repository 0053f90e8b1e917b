open Kite_sim
open Kite_stats
open Kite_profiles
open Kite_security
module BT = Kite_bench_tools

type outcome = { tables : Table.t list }

let fnum = Table.fmt_f
let fint = string_of_int

let both f = (f Scenario.Kite, f Scenario.Linux)

(* Run a testbed until its workload calls [finish] (see [Scenario.run]);
   the workload starts once the frontend is connected. *)
let net_run s ~what work =
  Scenario.run s.Scenario.hv ~what (fun finish ->
      Scenario.when_net_ready s (fun () -> work finish))

let blk_run s ~what work =
  Scenario.run s.Scenario.bhv ~what (fun finish ->
      Scenario.when_blk_ready s (fun () -> work finish))

(* ------------------------------------------------------------------ *)
(* Security / size / boot                                              *)
(* ------------------------------------------------------------------ *)

let fig1a ~quick:_ =
  let t =
    Table.create ~title:"Figure 1a: driver CVEs per year (cve.mitre.org)"
      ~columns:
        [ ("year", Table.Left); ("Linux drivers", Table.Right);
          ("Windows drivers", Table.Right) ]
  in
  List.iter
    (fun y ->
      Table.add_row t
        [
          fint y.Cve_db.year_;
          fint y.Cve_db.linux_driver_cves;
          fint y.Cve_db.windows_driver_cves;
        ])
    Cve_db.driver_cves_by_year;
  Table.note t "shape check: counts rise over time; Linux above Windows";
  { tables = [ t ] }

let fig4a ~quick:_ =
  let t =
    Table.create ~title:"Figure 4a: system call counts"
      ~columns:[ ("domain", Table.Left); ("syscalls", Table.Right) ]
  in
  Table.add_rows t
    [
      [ "Kite network domain"; fint (Syscalls.count Syscalls.kite_network) ];
      [ "Kite storage domain"; fint (Syscalls.count Syscalls.kite_storage) ];
      [ "Kite DHCP daemon VM"; fint (Syscalls.count Syscalls.kite_dhcp) ];
      [ "Ubuntu driver domain"; fint (Syscalls.count Syscalls.linux_driver_domain) ];
      [ "Linux full table"; fint (Syscalls.count Syscalls.linux_full) ];
    ];
  Table.note t "paper: Kite 14 (net) / 18 (storage) vs Ubuntu 171 (>=10x)";
  { tables = [ t ] }

let fig4b ~quick:_ =
  let t =
    Table.create ~title:"Figure 4b: image size (MB)"
      ~columns:[ ("image", Table.Left); ("MB", Table.Right) ]
  in
  List.iter
    (fun img ->
      Table.add_row t [ Image.name img; fnum (Image.total_mb img) ])
    [ Image.kite_network; Image.kite_storage; Image.kite_dhcp;
      Image.linux_driver_domain ];
  let ratio =
    Image.total_mb Image.linux_driver_domain /. Image.total_mb Image.kite_network
  in
  Table.note t
    (Printf.sprintf "Linux/Kite ratio %.1fx (paper: ~10x bigger)" ratio);
  { tables = [ t ] }

let fig4c ~quick:_ =
  (* Replay the boot sequences on one simulator. *)
  let engine = Engine.create () in
  let sched = Process.scheduler engine in
  let results = ref [] in
  List.iter
    (fun boot ->
      Boot.run sched boot ~on_ready:(fun at ->
          results := (Boot.name boot, at) :: !results))
    [ Boot.kite_network; Boot.kite_storage; Boot.kite_dhcp;
      Boot.linux_driver_domain ];
  Engine.run engine;
  let t =
    Table.create ~title:"Figure 4c: boot time (simulated)"
      ~columns:[ ("domain", Table.Left); ("boot time (s)", Table.Right) ]
  in
  List.iter
    (fun (name, at) -> Table.add_row t [ name; fnum (Time.to_sec_f at) ])
    (List.rev !results);
  Table.note t "paper: Kite 7 s vs Linux 75 s (>=10x faster, claim C1)";
  { tables = [ t ] }

let fig5 ~quick =
  let configs =
    if quick then
      List.map
        (fun c ->
          { c with Image_gen.text_kb = c.Image_gen.text_kb / 8 })
        Image_gen.all
    else Image_gen.all
  in
  let t =
    Table.create
      ~title:"Figure 5 (and 1b): ROP gadgets by category"
      ~columns:
        (("config", Table.Left)
        :: List.map
             (fun c -> (Decoder.category_name c, Table.Right))
             Decoder.all_categories
        @ [ ("total", Table.Right) ])
  in
  let totals = ref [] in
  List.iter
    (fun cfg ->
      let counts = Gadget.scan (Image_gen.generate cfg) in
      let total = Gadget.total counts in
      totals := (cfg.Image_gen.config_name, total) :: !totals;
      Table.add_row t
        (cfg.Image_gen.config_name
         :: List.map (fun (_, n) -> fint n) counts
        @ [ fint total ]))
    configs;
  (match (List.assoc_opt "Kite" !totals, List.assoc_opt "Default" !totals) with
  | Some k, Some d ->
      Table.note t
        (Printf.sprintf
           "Default/Kite ratio %.1fx (paper: default config has ~4x Kite's gadgets)"
           (float_of_int d /. float_of_int k))
  | _ -> ());
  { tables = [ t ] }

let table3 ~quick:_ =
  let kite_net = Os_profile.get Os_profile.Kite_network in
  let kite_stor = Os_profile.get Os_profile.Kite_storage in
  let linux = Os_profile.get Os_profile.Linux_network in
  let t =
    Table.create ~title:"Table 3: CVEs prevented by syscall removal"
      ~columns:
        [ ("CVE", Table.Left); ("gating syscalls", Table.Left);
          ("hits Linux DD", Table.Left); ("mitigated (net)", Table.Left);
          ("mitigated (storage)", Table.Left) ]
  in
  List.iter
    (fun cve ->
      let syscalls =
        List.concat_map
          (function Cve_db.Syscall l -> l | _ -> [])
          cve.Cve_db.preconditions
        |> String.concat ", "
      in
      Table.add_row t
        [
          cve.Cve_db.id;
          syscalls;
          (if Cve_db.applicable linux cve then "yes" else "no");
          (if Cve_db.mitigated_by_kite ~kite:kite_net ~linux cve then "yes"
           else "no");
          (if Cve_db.mitigated_by_kite ~kite:kite_stor ~linux cve then "yes"
           else "no");
        ])
    Cve_db.table3;
  let t2 =
    Table.create ~title:"Xen tooling CVEs shed with the userland"
      ~columns:
        [ ("CVE", Table.Left); ("hits Linux DD", Table.Left);
          ("hits Kite", Table.Left) ]
  in
  List.iter
    (fun cve ->
      Table.add_row t2
        [
          cve.Cve_db.id;
          (if Cve_db.applicable linux cve then "yes" else "no");
          (if Cve_db.applicable kite_net cve then "yes" else "no");
        ])
    Cve_db.tooling;
  { tables = [ t; t2 ] }

(* ------------------------------------------------------------------ *)
(* Network domain performance                                          *)
(* ------------------------------------------------------------------ *)

let fig6 ~quick =
  let duration = if quick then Time.ms 20 else Time.ms 200 in
  let run flavor =
    let s = Scenario.network ~flavor () in
    net_run s ~what:"fig6" (fun finish ->
        BT.Nuttcp.run ~sched:s.Scenario.sched ~client:s.Scenario.client_stack
          ~server:s.Scenario.guest_stack ~server_ip:s.Scenario.guest_ip
          ~duration ~on_done:finish ())
  in
  let k, l = both run in
  let t =
    Table.create ~title:"Figure 6: nuttcp UDP throughput (10GbE)"
      ~columns:
        [ ("driver domain", Table.Left); ("throughput (Gbps)", Table.Right);
          ("loss (%)", Table.Right) ]
  in
  Table.add_rows t
    [
      [ "Linux"; fnum l.BT.Nuttcp.throughput_gbps; fnum l.BT.Nuttcp.loss_pct ];
      [ "Kite"; fnum k.BT.Nuttcp.throughput_gbps; fnum k.BT.Nuttcp.loss_pct ];
    ];
  Table.note t "paper: ~7 Gbps for both, <1.5% loss";
  { tables = [ t ] }

let fig7 ~quick =
  let ping_count = if quick then 10 else 50 in
  let np_requests = if quick then 200 else 1000 in
  let mt_ops = if quick then 1100 else 22_000 in
  let run flavor =
    let s = Scenario.network ~flavor () in
    net_run s ~what:"fig7" (fun finish ->
        (* Memcached serves from the guest for the memtier leg. *)
        ignore
          (Kite_apps.Memcache.start s.Scenario.guest_tcp ~sched:s.Scenario.sched
             ());
        BT.Ping_bench.run ~sched:s.Scenario.sched
          ~client:s.Scenario.client_stack ~dst:s.Scenario.guest_ip
          ~count:ping_count ~interval:(Time.ms 100)
          ~on_done:(fun ping ->
            BT.Netperf.run ~sched:s.Scenario.sched
              ~client:s.Scenario.client_stack ~server:s.Scenario.guest_stack
              ~server_ip:s.Scenario.guest_ip ~requests:np_requests
              ~on_done:(fun np ->
                BT.Memtier.run ~sched:s.Scenario.sched
                  ~client_tcp:s.Scenario.client_tcp
                  ~server_ip:s.Scenario.guest_ip ~ops:mt_ops
                  ~on_done:(fun mt -> finish (ping, np, mt))
                  ())
              ())
          ())
  in
  let (kp, kn, km), (lp, ln, lm) = both run in
  let t =
    Table.create ~title:"Figure 7: network latency (ms)"
      ~columns:
        [ ("benchmark", Table.Left); ("Linux", Table.Right);
          ("Kite", Table.Right) ]
  in
  Table.add_rows t
    [
      [ "ping"; fnum ~prec:3 lp.BT.Ping_bench.avg_ms;
        fnum ~prec:3 kp.BT.Ping_bench.avg_ms ];
      [ "netperf"; fnum ~prec:3 ln.BT.Netperf.avg_ms;
        fnum ~prec:3 kn.BT.Netperf.avg_ms ];
      [ "memtier"; fnum ~prec:3 lm.BT.Memtier.avg_latency_ms;
        fnum ~prec:3 km.BT.Memtier.avg_latency_ms ];
    ];
  Table.note t "paper: ping 0.51/0.31, netperf 0.18/0.10, memtier 0.16/0.15";
  (* Bonus: full latency distributions (the paper reports averages). *)
  let td =
    Table.create ~title:"Figure 7 supplement: latency distributions (ms)"
      ~columns:
        [ ("benchmark", Table.Left); ("p50", Table.Right); ("p99", Table.Right);
          ("distribution", Table.Left) ]
  in
  List.iter
    (fun (label, samples) ->
      match samples with
      | [] -> ()
      | _ ->
          let h = Histogram.create ~base:0.01 ~factor:1.3 () in
          Histogram.add_list h samples;
          Table.add_row td
            [
              label;
              fnum ~prec:3 (Histogram.percentile h 50.);
              fnum ~prec:3 (Histogram.percentile h 99.);
              Histogram.sparkline h;
            ])
    [
      ("ping / Linux", lp.BT.Ping_bench.rtts_ms);
      ("ping / Kite", kp.BT.Ping_bench.rtts_ms);
      ("netperf / Linux", ln.BT.Netperf.latencies_ms);
      ("netperf / Kite", kn.BT.Netperf.latencies_ms);
    ];
  { tables = [ t; td ] }

(* Cap per-point work for apache so the 1 MiB points stay tractable:
   enough requests to amortize, bounded total bytes. *)
let ab_requests ~quick file_size =
  let budget = if quick then 8 * 1024 * 1024 else 64 * 1024 * 1024 in
  let n = max (if quick then 40 else 200) (budget / max 1 file_size) in
  min (if quick then 4000 else 20_000) n

let run_ab flavor ~quick ~file_size =
  let s = Scenario.network ~flavor () in
  net_run s ~what:"apache" (fun finish ->
      ignore
        (Kite_apps.Httpd.start s.Scenario.guest_tcp ~sched:s.Scenario.sched ());
      BT.Ab.run ~sched:s.Scenario.sched ~client_tcp:s.Scenario.client_tcp
        ~server_ip:s.Scenario.guest_ip
        ~requests:(ab_requests ~quick file_size)
        ~concurrency:40 ~file_size ~on_done:finish ())

let fig8a ~quick =
  let sizes = [ 512; 4096; 32768; 131072; 524288; 1048576 ] in
  let sizes = if quick then [ 512; 32768; 524288 ] else sizes in
  let t =
    Table.create ~title:"Figure 8a: Apache throughput vs file size"
      ~columns:
        [ ("file size (B)", Table.Right); ("Linux (MB/s)", Table.Right);
          ("Kite (MB/s)", Table.Right); ("Kite/Linux", Table.Right) ]
  in
  List.iter
    (fun size ->
      let k = run_ab Scenario.Kite ~quick ~file_size:size in
      let l = run_ab Scenario.Linux ~quick ~file_size:size in
      Table.add_row t
        [
          fint size;
          fnum l.BT.Ab.throughput_mbps;
          fnum k.BT.Ab.throughput_mbps;
          fnum (k.BT.Ab.throughput_mbps /. l.BT.Ab.throughput_mbps);
        ])
    sizes;
  Table.note t "paper: curves overlap; throughput grows with file size";
  { tables = [ t ] }

let fig8b ~quick =
  let k = run_ab Scenario.Kite ~quick ~file_size:524288 in
  let l = run_ab Scenario.Linux ~quick ~file_size:524288 in
  let t =
    Table.create ~title:"Figure 8b: Apache, 512 KiB file, 40 concurrent"
      ~columns:
        [ ("metric", Table.Left); ("Linux", Table.Right);
          ("Kite", Table.Right) ]
  in
  Table.add_rows t
    [
      [ "throughput (MB/s)"; fnum l.BT.Ab.throughput_mbps;
        fnum k.BT.Ab.throughput_mbps ];
      [ "time taken (s)"; fnum l.BT.Ab.time_taken_s; fnum k.BT.Ab.time_taken_s ];
      [ "requests/s"; fnum l.BT.Ab.requests_per_sec;
        fnum k.BT.Ab.requests_per_sec ];
    ];
  Table.note t "paper: Kite marginally faster on all three";
  { tables = [ t ] }

let fig9 ~quick =
  let threads_list = [ 5; 10; 15; 20 ] in
  let ops = if quick then 2000 else 10_000 in
  let run flavor threads =
    let s = Scenario.network ~flavor () in
    net_run s ~what:"fig9" (fun finish ->
        ignore
          (Kite_apps.Kvstore.start s.Scenario.guest_tcp ~sched:s.Scenario.sched
             ());
        BT.Redis_bench.run ~sched:s.Scenario.sched
          ~client_tcp:s.Scenario.client_tcp ~server_ip:s.Scenario.guest_ip
          ~threads ~ops_per_thread:ops ~value_size:128 ~on_done:finish ())
  in
  let t =
    Table.create ~title:"Figure 9: Redis SET/GET throughput (pipeline 1000)"
      ~columns:
        [ ("threads", Table.Right); ("Linux SET (op/s)", Table.Right);
          ("Kite SET (op/s)", Table.Right); ("Linux GET (op/s)", Table.Right);
          ("Kite GET (op/s)", Table.Right) ]
  in
  List.iter
    (fun threads ->
      let k = run Scenario.Kite threads in
      let l = run Scenario.Linux threads in
      Table.add_row t
        [
          fint threads;
          Table.fmt_si l.BT.Redis_bench.set_ops_per_sec;
          Table.fmt_si k.BT.Redis_bench.set_ops_per_sec;
          Table.fmt_si l.BT.Redis_bench.get_ops_per_sec;
          Table.fmt_si k.BT.Redis_bench.get_ops_per_sec;
        ])
    threads_list;
  Table.note t "paper: Kite and Linux netback exhibit similar performance";
  { tables = [ t ] }

(* A sysbench read-only query costs ~30 us of MySQL CPU; most of the
   per-query wall time is protocol round trips and sysbench's own
   client-side work, which is what makes the network-path delta nearly
   invisible in Figure 10a. *)
let sysbench_cpu_per_query = Time.us 30

let fig10 ~quick =
  let threads_list = if quick then [ 5; 20; 60 ] else [ 5; 10; 20; 40; 60 ] in
  let tx_per_thread = if quick then 8 else 25 in
  let run flavor threads =
    let s = Scenario.network ~flavor () in
    let hv = s.Scenario.hv in
    let r, elapsed, busy =
      net_run s ~what:"fig10" (fun finish ->
          let started = Kite_xen.Hypervisor.now hv in
          ignore
            (Kite_apps.Sqldb.start s.Scenario.guest_tcp
               ~cpu_per_query:sysbench_cpu_per_query
               ~charge:(fun span ->
                 Kite_xen.Hypervisor.cpu_work hv s.Scenario.domu span)
               ~backend:Kite_apps.Sqldb.Memory ~tables:10
               ~rows_per_table:1_000_000 ~sched:s.Scenario.sched ());
          BT.Sysbench_db.run ~sched:s.Scenario.sched
            ~client_tcp:s.Scenario.client_tcp
            ~server_ip:s.Scenario.guest_ip ~threads
            ~transactions_per_thread:tx_per_thread ~seed:(7 + threads)
            ~on_done:(fun r ->
              finish
                ( r,
                  Kite_xen.Hypervisor.now hv - started,
                  Metrics.busy (Kite_xen.Hypervisor.metrics hv) "vcpu.domu" ))
            ())
    in
    (* DomU CPU utilization from the hypervisor's busy accounting, as
       sysstat would report it: % of the guest's 22 vCPUs. *)
    let util =
      float_of_int busy /. float_of_int (max 1 elapsed) /. 22.0 *. 100.0
    in
    (r, util)
  in
  let ta =
    Table.create ~title:"Figure 10a: MySQL (network path) throughput"
      ~columns:
        [ ("threads", Table.Right); ("Linux (q/s)", Table.Right);
          ("Kite (q/s)", Table.Right) ]
  in
  let tb =
    Table.create ~title:"Figure 10b: DomU CPU utilization (%)"
      ~columns:
        [ ("threads", Table.Right); ("Linux", Table.Right);
          ("Kite", Table.Right) ]
  in
  List.iter
    (fun threads ->
      let kr, ku = run Scenario.Kite threads in
      let lr, lu = run Scenario.Linux threads in
      Table.add_row ta
        [ fint threads; fnum lr.BT.Sysbench_db.qps; fnum kr.BT.Sysbench_db.qps ];
      Table.add_row tb [ fint threads; fnum lu; fnum ku ])
    threads_list;
  Table.note ta "paper: almost no difference between Linux and Kite netback";
  Table.note tb "paper: DomU utilization very similar for both";
  { tables = [ ta; tb ] }

let table4 ~quick =
  let repeats = 3 in
  let seeds = List.init repeats (fun i -> 100 + i) in
  let samples_of runner = List.map runner seeds in
  let rsd xs = Summary.rsd_pct xs in
  (* One seeded testbed per sample: once the network is ready and a
     seed-dependent jitter has passed, [bench s seed finish] starts the
     server and its load generator. *)
  let measure what bench flavor seed =
    let s = Scenario.network ~flavor ~seed () in
    net_run s ~what (fun finish ->
        Process.sleep (Time.us (seed * 37 mod 211));
        bench s seed finish)
  in
  let apache =
    measure "table4-apache" (fun s seed finish ->
        ignore
          (Kite_apps.Httpd.start s.Scenario.guest_tcp ~sched:s.Scenario.sched ());
        BT.Ab.run ~sched:s.Scenario.sched ~client_tcp:s.Scenario.client_tcp
          ~server_ip:s.Scenario.guest_ip ~seed
          ~requests:(if quick then 120 else 600)
          ~concurrency:40 ~file_size:131072
          ~on_done:(fun r -> finish r.BT.Ab.requests_per_sec)
          ())
  in
  let redis =
    measure "table4-redis" (fun s seed finish ->
        ignore
          (Kite_apps.Kvstore.start s.Scenario.guest_tcp ~sched:s.Scenario.sched
             ());
        BT.Redis_bench.run ~sched:s.Scenario.sched
          ~client_tcp:s.Scenario.client_tcp ~server_ip:s.Scenario.guest_ip
          ~threads:10 ~seed
          ~ops_per_thread:(if quick then 1000 else 4000)
          ~on_done:(fun r -> finish r.BT.Redis_bench.get_ops_per_sec)
          ())
  in
  let memtier =
    measure "table4-memtier" (fun s seed finish ->
        ignore
          (Kite_apps.Memcache.start s.Scenario.guest_tcp ~sched:s.Scenario.sched
             ());
        BT.Memtier.run ~sched:s.Scenario.sched
          ~client_tcp:s.Scenario.client_tcp ~server_ip:s.Scenario.guest_ip
          ~ops:(if quick then 1100 else 5500) ~seed
          ~on_done:(fun r -> finish r.BT.Memtier.ops_per_sec)
          ())
  in
  let sysbench =
    measure "table4-sysbench" (fun s seed finish ->
        ignore
          (Kite_apps.Sqldb.start s.Scenario.guest_tcp
             ~backend:Kite_apps.Sqldb.Memory ~tables:10
             ~rows_per_table:1_000_000 ~sched:s.Scenario.sched ());
        BT.Sysbench_db.run ~sched:s.Scenario.sched
          ~client_tcp:s.Scenario.client_tcp ~server_ip:s.Scenario.guest_ip
          ~threads:10 ~transactions_per_thread:(if quick then 5 else 15)
          ~seed
          ~on_done:(fun r -> finish r.BT.Sysbench_db.qps)
          ())
  in
  let t =
    Table.create ~title:"Table 4: relative standard deviation (%)"
      ~columns:
        [ ("benchmark", Table.Left); ("Linux", Table.Right);
          ("Kite", Table.Right) ]
  in
  List.iter
    (fun (name, runner) ->
      let l = rsd (samples_of (runner Scenario.Linux)) in
      let k = rsd (samples_of (runner Scenario.Kite)) in
      Table.add_row t [ name; fnum ~prec:4 l; fnum ~prec:4 k ])
    [
      ("Apache (req/s)", apache);
      ("Redis (GET op/s)", redis);
      ("Memtier (op/s)", memtier);
      ("Sysbench (q/s)", sysbench);
    ];
  Table.note t
    "paper: all RSDs tiny (<=1.5%); the deterministic simulator gives ~0 \
     except where seeds perturb schedules";
  { tables = [ t ] }

(* ------------------------------------------------------------------ *)
(* Storage domain performance                                          *)
(* ------------------------------------------------------------------ *)

let fig11 ~quick =
  let total = if quick then 32 * 1024 * 1024 else 256 * 1024 * 1024 in
  let run flavor direction =
    let s = Scenario.storage ~flavor () in
    blk_run s ~what:"fig11" (fun finish ->
        BT.Dd.run ~sched:s.Scenario.bsched ~dev:(Scenario.blockdev s)
          ~direction ~total ~on_done:finish ())
  in
  let t =
    Table.create ~title:"Figure 11: dd sequential throughput (MB/s)"
      ~columns:
        [ ("direction", Table.Left); ("Linux", Table.Right);
          ("Kite", Table.Right) ]
  in
  List.iter
    (fun (label, direction) ->
      let k = run Scenario.Kite direction in
      let l = run Scenario.Linux direction in
      Table.add_row t
        [ label; fnum l.BT.Dd.throughput_mbs; fnum k.BT.Dd.throughput_mbs ])
    [ ("read", `Read); ("write", `Write) ];
  Table.note t "paper: ~1 GB/s both directions, Linux and Kite similar";
  { tables = [ t ] }

let with_fs flavor ~prepare_fn ~run_fn =
  let s = Scenario.storage ~flavor () in
  blk_run s ~what:"storage-fs" (fun finish ->
      let fs = Kite_vfs.Fs.format (Scenario.blockdev s) in
      prepare_fn fs;
      run_fn s fs finish)

let fig12 ~quick =
  let files = 8 in
  let file_size = if quick then 2 * 1024 * 1024 else 8 * 1024 * 1024 in
  let fileio flavor ~threads ~block_size ~ops =
    with_fs flavor
      ~prepare_fn:(fun fs -> BT.Sysbench_fileio.prepare fs ~files ~file_size)
      ~run_fn:(fun s fs k ->
        BT.Sysbench_fileio.run ~sched:s.Scenario.bsched ~fs ~files ~file_size
          ~block_size ~threads ~ops_per_thread:ops ~seed:(threads + block_size)
          ~on_done:k ())
  in
  let ta =
    Table.create
      ~title:"Figure 12a: sysbench fileio vs threads (256 KiB blocks)"
      ~columns:
        [ ("threads", Table.Right); ("Linux (MB/s)", Table.Right);
          ("Kite (MB/s)", Table.Right) ]
  in
  let threads_list = if quick then [ 1; 10; 40 ] else [ 1; 5; 10; 20; 40; 100 ] in
  List.iter
    (fun threads ->
      let ops = max 8 (96 / threads) in
      let k = fileio Scenario.Kite ~threads ~block_size:(256 * 1024) ~ops in
      let l = fileio Scenario.Linux ~threads ~block_size:(256 * 1024) ~ops in
      Table.add_row ta
        [
          fint threads;
          fnum l.BT.Sysbench_fileio.throughput_mbps;
          fnum k.BT.Sysbench_fileio.throughput_mbps;
        ])
    threads_list;
  Table.note ta "paper: Kite at least matches Linux; gap grows with threads";
  let tb =
    Table.create
      ~title:"Figure 12b: sysbench fileio vs block size (20 threads)"
      ~columns:
        [ ("block size", Table.Right); ("Linux (MB/s)", Table.Right);
          ("Kite (MB/s)", Table.Right) ]
  in
  let sizes =
    if quick then [ 16 * 1024; 256 * 1024; 1 lsl 20 ]
    else [ 16 * 1024; 64 * 1024; 256 * 1024; 1 lsl 20; 1 lsl 22 ]
  in
  List.iter
    (fun block_size ->
      let ops = max 4 ((4 * 1024 * 1024) / block_size) in
      let k = fileio Scenario.Kite ~threads:20 ~block_size ~ops in
      let l = fileio Scenario.Linux ~threads:20 ~block_size ~ops in
      Table.add_row tb
        [
          Table.fmt_si (float_of_int block_size);
          fnum l.BT.Sysbench_fileio.throughput_mbps;
          fnum k.BT.Sysbench_fileio.throughput_mbps;
        ])
    sizes;
  Table.note tb "paper: throughput rises with block size; Kite >= Linux";
  { tables = [ ta; tb ] }

let fig13 ~quick =
  let threads_list = if quick then [ 1; 10; 40 ] else [ 1; 5; 10; 20; 40; 100 ] in
  let tx_per_thread = if quick then 4 else 10 in
  let run flavor threads =
    let s = Scenario.storage ~flavor () in
    blk_run s ~what:"fig13" (fun finish ->
        (* The DB server lives in DomU; the sysbench client talks to it
           over a management link that bypasses the storage domain, so
           the variable under test is the disk path. *)
        let da, db = Kite_net.Netdev.pipe ~name_a:"mgmt-db" ~name_b:"mgmt-ld" in
        let db_stack =
          Kite_net.Stack.create s.Scenario.bsched ~name:"db" ~dev:da
            ~mac:(Kite_net.Macaddr.make_local 31)
            ~ip:(Kite_net.Ipv4addr.of_string "172.16.0.1")
            ~netmask:(Kite_net.Ipv4addr.of_string "255.255.255.0")
            ()
        in
        let load_stack =
          Kite_net.Stack.create s.Scenario.bsched ~name:"load" ~dev:db
            ~mac:(Kite_net.Macaddr.make_local 32)
            ~ip:(Kite_net.Ipv4addr.of_string "172.16.0.2")
            ~netmask:(Kite_net.Ipv4addr.of_string "255.255.255.0")
            ()
        in
        let db_tcp = Kite_net.Tcp.attach db_stack in
        let load_tcp = Kite_net.Tcp.attach load_stack in
        let dev = Scenario.blockdev s in
        ignore
          (Kite_apps.Sqldb.start db_tcp
             ~backend:
               (Kite_apps.Sqldb.Raw
                  {
                    read = dev.Kite_vfs.Blockdev.read;
                    write = dev.Kite_vfs.Blockdev.write;
                    (* small pool: the 20 GB working set misses to disk *)
                    buffer_pool_rows = 2048;
                  })
             ~tables:100 ~rows_per_table:100_000 ~sched:s.Scenario.bsched ());
        BT.Sysbench_db.run ~sched:s.Scenario.bsched ~client_tcp:load_tcp
          ~server_ip:(Kite_net.Ipv4addr.of_string "172.16.0.1")
          ~tables:100 ~rows_per_table:100_000 ~threads
          ~transactions_per_thread:tx_per_thread ~range_size:50
          ~seed:(31 + threads) ~on_done:finish ())
  in
  let t =
    Table.create ~title:"Figure 13: MySQL (storage path) throughput"
      ~columns:
        [ ("threads", Table.Right); ("Linux (Kbps)", Table.Right);
          ("Kite (Kbps)", Table.Right) ]
  in
  List.iter
    (fun threads ->
      let k = run Scenario.Kite threads in
      let l = run Scenario.Linux threads in
      (* sysbench reports row payload throughput. *)
      let kbps r =
        r.BT.Sysbench_db.qps *. float_of_int Kite_apps.Sqldb.row_size
        *. 8.0 /. 1000.0
      in
      Table.add_row t [ fint threads; fnum (kbps l); fnum (kbps k) ])
    threads_list;
  Table.note t "paper: identical curves for Linux and Kite";
  { tables = [ t ] }

let fig14 ~quick =
  let files = if quick then 24 else 80 in
  let mean_file_size = 128 * 1024 in
  let run flavor io_size =
    with_fs flavor
      ~prepare_fn:(fun fs ->
        BT.Filebench.prepare fs BT.Filebench.Fileserver ~files ~mean_file_size)
      ~run_fn:(fun s fs k ->
        BT.Filebench.run ~sched:s.Scenario.bsched ~fs BT.Filebench.Fileserver
          ~files ~mean_file_size ~io_size ~threads:50
          ~ops_per_thread:(if quick then 4 else 10)
          ~seed:io_size ~on_done:k ())
  in
  let t =
    Table.create ~title:"Figure 14: filebench fileserver throughput"
      ~columns:
        [ ("I/O size", Table.Right); ("Linux (MB/s)", Table.Right);
          ("Kite (MB/s)", Table.Right) ]
  in
  let sizes =
    if quick then [ 16 * 1024; 128 * 1024; 1 lsl 20 ]
    else [ 16 * 1024; 64 * 1024; 128 * 1024; 512 * 1024; 1 lsl 20; 1 lsl 22 ]
  in
  List.iter
    (fun io_size ->
      let k = run Scenario.Kite io_size in
      let l = run Scenario.Linux io_size in
      Table.add_row t
        [
          Table.fmt_si (float_of_int io_size);
          fnum l.BT.Filebench.throughput_mbps;
          fnum k.BT.Filebench.throughput_mbps;
        ])
    sizes;
  Table.note t "paper: Kite's storage domain often slightly ahead of Linux";
  { tables = [ t ] }

let filebench_single ~quick personality ~files ~mean_file_size ~io_size
    ~threads ~ops =
  let run flavor =
    with_fs flavor
      ~prepare_fn:(fun fs ->
        BT.Filebench.prepare fs personality ~files ~mean_file_size)
      ~run_fn:(fun s fs k ->
        BT.Filebench.run ~sched:s.Scenario.bsched ~fs personality ~files
          ~mean_file_size ~io_size ~threads
          ~ops_per_thread:(if quick then max 2 (ops / 4) else ops)
          ~seed:42 ~on_done:k ())
  in
  both run

let fig15 ~quick =
  let k, l =
    filebench_single ~quick BT.Filebench.Mongodb ~files:4
      ~mean_file_size:(8 * 1024 * 1024) ~io_size:(4 * 1024 * 1024) ~threads:1
      ~ops:12
  in
  let t =
    Table.create ~title:"Figure 15: filebench MongoDB personality"
      ~columns:
        [ ("metric", Table.Left); ("Linux", Table.Right);
          ("Kite", Table.Right) ]
  in
  Table.add_rows t
    [
      [ "throughput (MB/s)"; fnum l.BT.Filebench.throughput_mbps;
        fnum k.BT.Filebench.throughput_mbps ];
      [ "service time (us/op)"; fnum l.BT.Filebench.us_per_op;
        fnum k.BT.Filebench.us_per_op ];
      [ "latency (ms)"; fnum l.BT.Filebench.avg_latency_ms;
        fnum k.BT.Filebench.avg_latency_ms ];
    ];
  Table.note t "paper: Kite outperforms Linux even at low concurrency";
  { tables = [ t ] }

let fig16 ~quick =
  let k, l =
    filebench_single ~quick BT.Filebench.Webserver
      ~files:(if quick then 24 else 100)
      ~mean_file_size:(64 * 1024) ~io_size:(16 * 1024) ~threads:50 ~ops:8
  in
  let t =
    Table.create ~title:"Figure 16: filebench webserver personality"
      ~columns:
        [ ("metric", Table.Left); ("Linux", Table.Right);
          ("Kite", Table.Right) ]
  in
  Table.add_rows t
    [
      [ "throughput (MB/s)"; fnum l.BT.Filebench.throughput_mbps;
        fnum k.BT.Filebench.throughput_mbps ];
      [ "service time (us/op)"; fnum l.BT.Filebench.us_per_op;
        fnum k.BT.Filebench.us_per_op ];
      [ "latency (ms)"; fnum l.BT.Filebench.avg_latency_ms;
        fnum k.BT.Filebench.avg_latency_ms ];
    ];
  Table.note t "paper: Kite slightly higher throughput, lower latency";
  { tables = [ t ] }

(* ------------------------------------------------------------------ *)
(* Daemon VM                                                           *)
(* ------------------------------------------------------------------ *)

let dhcp ~quick =
  let clients = if quick then 20 else 50 in
  (* §5.5 swaps the daemon VM itself (rumprun vs Linux) behind the same
     network path; the Linux daemon pays a deeper in-VM stack and
     scheduler path per message. *)
  let run daemon_cpu =
    let s = Scenario.network ~flavor:Scenario.Kite () in
    net_run s ~what:"dhcp" (fun finish ->
        ignore
          (Kite_apps.Dhcp_server.start s.Scenario.guest_stack
             ~sched:s.Scenario.sched ~server_ip:s.Scenario.guest_ip
             ~pool_start:(Kite_net.Ipv4addr.of_string "10.0.0.100")
             ~pool_size:200 ~cpu_per_message:daemon_cpu ());
        BT.Perfdhcp.run ~sched:s.Scenario.sched ~client:s.Scenario.client_stack
          ~server_ip:s.Scenario.guest_ip ~clients ~interval:(Time.ms 100)
          ~on_done:finish ())
  in
  let k = run (Time.us 25) in
  let l = run (Time.us 55) in
  let t =
    Table.create ~title:"§5.5: DHCP daemon VM (perfdhcp delays, ms)"
      ~columns:
        [ ("exchange", Table.Left); ("Linux daemon VM", Table.Right);
          ("rumprun daemon VM", Table.Right) ]
  in
  Table.add_rows t
    [
      [ "Discover -> Offer"; fnum ~prec:3 l.BT.Perfdhcp.avg_discover_offer_ms;
        fnum ~prec:3 k.BT.Perfdhcp.avg_discover_offer_ms ];
      [ "Request -> Ack"; fnum ~prec:3 l.BT.Perfdhcp.avg_request_ack_ms;
        fnum ~prec:3 k.BT.Perfdhcp.avg_request_ack_ms ];
    ];
  Table.note t "paper: very similar for rumprun and Linux (~0.78 / ~0.7 ms)";
  { tables = [ t ] }

let table1 ~quick:_ =
  let t =
    Table.create ~title:"Table 1: Kite components (paper LoC -> this repo)"
      ~columns:
        [ ("component", Table.Left); ("paper LoC", Table.Right);
          ("here", Table.Left) ]
  in
  Table.add_rows t
    [
      [ "Blkback"; "1904"; "lib/drivers/blkback.ml + blkif.ml + split.ml" ];
      [ "Netback"; "2791";
        "lib/drivers/netback.ml + netchannel.ml + split.ml" ];
      [ "HVM extension (xenbus/xenstore)"; "1100";
        "lib/xen/xenstore.ml + xenbus.ml" ];
      [ "Configuration apps"; "450"; "lib/drivers/net_app.ml + blk_app.ml" ];
      [ "Utilities (ifconfig/brconfig)"; "222";
        "lib/net/netdev.ml + bridge.ml" ];
      [ "Daemon VM (OpenDHCP)"; "16"; "lib/apps/dhcp_server.ml" ];
      [ "Total"; "6483"; "" ];
    ];
  { tables = [ t ] }

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let abl_persistent ~quick =
  let writes = if quick then 100 else 400 in
  let run persistent =
    let s =
      Scenario.storage ~flavor:Scenario.Kite ~feature_persistent:persistent ()
    in
    let hv = s.Scenario.bhv in
    blk_run s ~what:"abl-persistent" (fun finish ->
        let dev = Scenario.blockdev s in
        let payload = Bytes.make 4096 'a' in
        let t0 = Kite_xen.Hypervisor.now hv in
        for i = 0 to writes - 1 do
          dev.Kite_vfs.Blockdev.write ~sector:(i * 8) payload
        done;
        let m = Kite_xen.Hypervisor.metrics hv in
        finish
          ( Kite_xen.Hypervisor.now hv - t0,
            Metrics.count m "hypercall.grant_map",
            Metrics.count m "hypercall.grant_unmap" ))
  in
  let e_on, map_on, unmap_on = run true in
  let e_off, map_off, unmap_off = run false in
  let t =
    Table.create
      ~title:"Ablation: persistent grant references (4 KiB writes)"
      ~columns:
        [ ("config", Table.Left); ("grant_map calls", Table.Right);
          ("grant_unmap calls", Table.Right); ("elapsed", Table.Right) ]
  in
  Table.add_rows t
    [
      [ "persistent"; fint map_on; fint unmap_on; Time.to_string e_on ];
      [ "map/unmap per request"; fint map_off; fint unmap_off;
        Time.to_string e_off ];
    ];
  Table.note t "persistent refs eliminate per-request map/unmap hypercalls";
  { tables = [ t ] }

let abl_batching ~quick =
  let total = if quick then 16 * 1024 * 1024 else 64 * 1024 * 1024 in
  let run batching =
    let s = Scenario.storage ~flavor:Scenario.Kite ~batching () in
    let r =
      blk_run s ~what:"abl-batching" (fun finish ->
          BT.Dd.run ~sched:s.Scenario.bsched ~dev:(Scenario.blockdev s)
            ~direction:`Write ~total ~on_done:finish ())
    in
    let inst =
      List.hd (Kite_drivers.Blkback.instances (Kite_drivers.Blk_app.blkback s.Scenario.blk_app))
    in
    ( r.BT.Dd.throughput_mbs,
      Kite_drivers.Blkback.requests_served inst,
      Kite_drivers.Blkback.device_ops inst )
  in
  let thr_on, req_on, ops_on = run true in
  let thr_off, req_off, ops_off = run false in
  let t =
    Table.create ~title:"Ablation: consecutive-segment batching (dd write)"
      ~columns:
        [ ("config", Table.Left); ("requests", Table.Right);
          ("device ops", Table.Right); ("MB/s", Table.Right) ]
  in
  Table.add_rows t
    [
      [ "batching"; fint req_on; fint ops_on; fnum thr_on ];
      [ "one op per request"; fint req_off; fint ops_off; fnum thr_off ];
    ];
  Table.note t "batching merges contiguous requests into fewer device ops";
  { tables = [ t ] }

let abl_indirect ~quick =
  let total = if quick then 16 * 1024 * 1024 else 64 * 1024 * 1024 in
  let run indirect =
    let s = Scenario.storage ~flavor:Scenario.Kite ~feature_indirect:indirect () in
    let r =
      blk_run s ~what:"abl-indirect" (fun finish ->
          BT.Dd.run ~sched:s.Scenario.bsched ~dev:(Scenario.blockdev s)
            ~direction:`Read ~total ~on_done:finish ())
    in
    (r.BT.Dd.throughput_mbs, Kite_drivers.Blkfront.requests_issued s.Scenario.blkfront)
  in
  let thr_on, req_on = run true in
  let thr_off, req_off = run false in
  let t =
    Table.create
      ~title:"Ablation: indirect segments (1 MiB sequential reads)"
      ~columns:
        [ ("config", Table.Left); ("ring requests", Table.Right);
          ("MB/s", Table.Right) ]
  in
  Table.add_rows t
    [
      [ "indirect (128 KiB/request)"; fint req_on; fnum thr_on ];
      [ "direct only (44 KiB/request)"; fint req_off; fnum thr_off ];
    ];
  Table.note t "paper §3.3: direct segments cap requests at 44 KiB";
  { tables = [ t ] }

let abl_wake ~quick =
  (* What the dedicated-thread design buys: compare the normal warm/cold
     wake model against a degraded one where every wakeup pays the cold
     cost (no fast handler-to-thread path). *)
  let requests = if quick then 100 else 400 in
  let run_with ov =
    let s = Scenario.network ~overheads_override:ov ~flavor:Scenario.Kite () in
    net_run s ~what:"abl-wake" (fun finish ->
        BT.Netperf.run ~sched:s.Scenario.sched ~client:s.Scenario.client_stack
          ~server:s.Scenario.guest_stack ~server_ip:s.Scenario.guest_ip
          ~requests ~on_done:finish ())
  in
  let normal = run_with Kite_drivers.Overheads.kite in
  let degraded =
    run_with
      {
        Kite_drivers.Overheads.kite with
        Kite_drivers.Overheads.wake_warm =
          Kite_drivers.Overheads.kite.Kite_drivers.Overheads.wake_cold;
      }
  in
  let t =
    Table.create
      ~title:"Ablation: dedicated worker threads (netperf RR latency)"
      ~columns:[ ("config", Table.Left); ("latency (ms)", Table.Right) ]
  in
  Table.add_rows t
    [
      [ "threaded handlers (kite)"; fnum ~prec:3 normal.BT.Netperf.avg_ms ];
      [ "every wakeup cold"; fnum ~prec:3 degraded.BT.Netperf.avg_ms ];
    ];
  Table.note t
    "paper §3.2: slow handler paths would block subsequent notifications";
  { tables = [ t ] }

(* §5.2 motivates fast boots with failure recovery: when a driver domain
   is restarted, guests lose I/O until it has booted and the frontends
   have re-paired.  Recovery time = boot replay + the measured
   frontend/backend handshake on a fresh domain. *)
let restart ~quick:_ =
  let handshake_time flavor =
    let s = Scenario.network ~flavor () in
    let hv = s.Scenario.hv in
    net_run s ~what:"restart" (fun finish ->
        finish (Kite_xen.Hypervisor.now hv))
  in
  let t =
    Table.create ~title:"Extension: driver-domain restart recovery time"
      ~columns:
        [ ("flavor", Table.Left); ("boot", Table.Right);
          ("reconnect handshake", Table.Right); ("guest I/O outage", Table.Right) ]
  in
  List.iter
    (fun (flavor, boot) ->
      let hs = handshake_time flavor in
      Table.add_row t
        [
          Scenario.flavor_name flavor;
          Time.to_string (Boot.total boot);
          Time.to_string hs;
          Time.to_string (Boot.total boot + hs);
        ])
    [
      (Scenario.Kite, Boot.kite_network);
      (Scenario.Linux, Boot.linux_driver_domain);
    ];
  Table.note t
    "restarting a failed Kite domain interrupts guest I/O ~10x more briefly";
  { tables = [ t ] }

(* The measured counterpart of [restart]: actually destroy the driver
   domain mid-workload and time recovery end to end.  Storage: a stream
   of sequential writes spans the crash; blkfront journals in-flight
   requests and replays them into the rebuilt backend, and a full
   read-back verifies exactly-once completion (zero lost, zero
   duplicated).  Network: a ping stream spans the crash; service resumes
   once netfront re-handshakes.  Downtime is crash instant to frontend
   reconnected, dominated by the flavor's boot profile. *)
let restart_recovery ~quick =
  let module Flight = Kite_flight.Flight in
  let module Slo = Kite_flight.Slo in
  (* The incident snapshot is part of this experiment's contract, so
     where the enclosing run armed none we arm private sinks: a flight
     recorder per machine, plus the fault log (whose toolstack notes land
     in the timeline) and a metrics registry (for the delta and the SLO
     histogram). *)
  let obs = Obs.current () in
  Obs.run
    {
      obs with
      flight = Obs.ensure obs.flight Flight.sink;
      fault =
        Obs.ensure obs.fault (fun () -> Kite_fault.Fault.sink ~seed:23 []);
      metrics = Obs.ensure obs.metrics Kite_metrics.Registry.sink;
    }
  @@ fun () ->
  (* Each run's teardown seals its recorder: the rendered snapshot
     carries its metrics delta and SLO verdicts. *)
  let flights = ref [] in
  let note_flight = Option.iter (fun fl -> flights := fl :: !flights) in
  let blk_row flavor =
    let s = Scenario.storage ~flavor () in
    let writes = if quick then 96 else 256 in
    let span = 64 (* sectors per write *) in
    let downtime = ref None in
    let verify_errors =
      blk_run s ~what:"restart-recovery storage" (fun finish ->
          (* Back-to-back writes keep requests in flight, so the crash
             lands on a non-empty journal and forces a replay. *)
          Scenario.crash_and_restart_blk s ~flavor ~at:(Time.ms 2)
            ~on_restored:(fun ~downtime:d -> downtime := Some d)
            ();
          let front = s.Scenario.blkfront in
          let fill k = Char.chr (Char.code 'a' + (k mod 26)) in
          for k = 0 to writes - 1 do
            let data =
              Bytes.make (span * Kite_drivers.Blkfront.sector_size) (fill k)
            in
            Kite_drivers.Blkfront.write front ~sector:(k * span) data
          done;
          let errors = ref 0 in
          for k = 0 to writes - 1 do
            Bytes.iter
              (fun c -> if c <> fill k then incr errors)
              (Kite_drivers.Blkfront.read front ~sector:(k * span)
                 ~count:span)
          done;
          (* The restore callback polls the frontend every 1 ms, so it
             may report after the last read completed. *)
          while !downtime = None do
            Process.sleep (Time.ms 1)
          done;
          finish !errors)
    in
    note_flight s.Scenario.bctx.Kite_drivers.Xen_ctx.flight;
    [
      Scenario.flavor_name flavor;
      Time.to_string (Option.get !downtime);
      fint writes;
      fint (Kite_drivers.Blkfront.replayed s.Scenario.blkfront);
      fint verify_errors;
    ]
  in
  let net_row flavor =
    let s = Scenario.network ~flavor () in
    let downtime = ref None in
    let sent = ref 0 and received = ref 0 and after_ok = ref 0 in
    (* Ping RTTs feed a histogram so the blackout shows up as an
       SLO-annotated p99 spike: a timed-out ping is observed at the
       timeout value (the client-visible floor of its latency). *)
    let rtt_h =
      match s.Scenario.ctx.Kite_drivers.Xen_ctx.metrics with
      | Some reg ->
          let h =
            Kite_metrics.Registry.histogram reg
              ~help:"client ping RTT (ns); timeouts observed at the timeout"
              ~base:1000. ~factor:2. "kite_ping_rtt_ns" []
          in
          (match s.Scenario.ctx.Kite_drivers.Xen_ctx.flight with
          | Some fl ->
              Flight.add_slo fl
                (Slo.create ~name:"ping-rtt-p99" ~metric:"kite_ping_rtt_ns"
                   ~quantile:0.99
                   ~threshold:(float_of_int (Time.ms 5))
                   reg)
          | None -> ());
          Some h
      | None -> None
    in
    let observe_rtt ns =
      match rtt_h with
      | Some h -> Kite_metrics.Registry.observe h (float_of_int ns)
      | None -> ()
    in
    net_run s ~what:"restart-recovery network" (fun finish ->
        Scenario.crash_and_restart_net s ~flavor ~at:(Time.ms 10)
          ~on_restored:(fun ~downtime:d -> downtime := Some d)
          ();
        (* Ping through the outage until the backend is back, then
           confirm the data path with a post-restart burst. *)
        let rec until_restored seq =
          if !downtime = None then begin
            incr sent;
            (match
               Kite_net.Stack.ping s.Scenario.client_stack
                 ~dst:s.Scenario.guest_ip ~timeout:(Time.ms 20) ~seq ()
             with
            | Some rtt ->
                incr received;
                observe_rtt rtt
            | None -> observe_rtt (Time.ms 20));
            Process.sleep (Time.ms 5);
            until_restored (seq + 1)
          end
          else seq
        in
        let seq = until_restored 0 in
        for k = 0 to 9 do
          incr sent;
          match
            Kite_net.Stack.ping s.Scenario.client_stack
              ~dst:s.Scenario.guest_ip ~timeout:(Time.ms 100) ~seq:(seq + k)
              ()
          with
          | Some rtt ->
              incr received;
              incr after_ok;
              observe_rtt rtt
          | None -> observe_rtt (Time.ms 100)
        done;
        finish ());
    note_flight s.Scenario.ctx.Kite_drivers.Xen_ctx.flight;
    [
      Scenario.flavor_name flavor;
      Time.to_string (Option.get !downtime);
      fint !sent;
      fint (!sent - !received);
      Printf.sprintf "%d/10" !after_ok;
    ]
  in
  let tblk =
    Table.create
      ~title:"Extension: storage crash/restart recovery (measured)"
      ~columns:
        [ ("flavor", Table.Left); ("downtime", Table.Right);
          ("writes", Table.Right); ("replayed", Table.Right);
          ("verify errors", Table.Right) ]
  in
  Table.add_row tblk (blk_row Scenario.Kite);
  Table.add_row tblk (blk_row Scenario.Linux);
  Table.note tblk
    "writes block across the crash, journal replays in-flight requests: \
     zero lost, zero duplicated";
  let tnet =
    Table.create
      ~title:"Extension: network crash/restart recovery (measured)"
      ~columns:
        [ ("flavor", Table.Left); ("downtime", Table.Right);
          ("pings", Table.Right); ("lost", Table.Right);
          ("after restart", Table.Right) ]
  in
  Table.add_row tnet (net_row Scenario.Kite);
  Table.add_row tnet (net_row Scenario.Linux);
  Table.note tnet
    "pings are lost while the domain reboots; Tx/Rx resume on reconnect \
     (Kite downtime ~10-100x below Linux)";
  (* The flight recorders' view of the same runs: every crash froze an
     incident snapshot; render them after the headline tables. *)
  let fls = List.rev !flights in
  let incident_tables =
    List.concat_map
      (fun fl ->
        List.concat_map
          (fun inc ->
            Flight_report.incident_tables
              ~last:(if quick then 12 else 30)
              fl inc)
          (Flight.incidents fl))
      fls
  in
  let flight_tables =
    match fls with
    | [] -> []
    | _ ->
        Flight_report.summary_table fls :: Flight_report.slo_table fls
        :: incident_tables
  in
  { tables = [ tblk; tnet ] @ flight_tables }

(* §3.1's scaling claim: one Kite domain with multiple vCPUs can serve
   several NICs.  Two guests behind two passthrough NICs, one bridge
   each; aggregate UDP throughput approaches 2x a single NIC. *)
let scale ~quick =
  let duration = if quick then Time.ms 20 else Time.ms 100 in
  let run nnics =
    let hv = Kite_xen.Hypervisor.create () in
    let ctx = Scenario.arm hv "scale-" in
    let sched = Kite_xen.Hypervisor.sched hv in
    let dd =
      Kite_xen.Hypervisor.create_domain hv ~name:"netdd"
        ~kind:Kite_xen.Domain.Driver_domain ~vcpus:nnics ~mem_mb:1024
    in
    let links =
      List.init nnics (fun i ->
          let srv =
            Kite_devices.Nic.create sched
              ~name:(Printf.sprintf "srv%d" i) ~queue_limit:8192 ()
          in
          let cli =
            Kite_devices.Nic.create sched
              ~name:(Printf.sprintf "cli%d" i) ~queue_limit:8192 ()
          in
          Kite_devices.Nic.connect srv cli ~propagation:(Time.ns 500);
          (srv, cli))
    in
    let app =
      Kite_drivers.Net_app.run_multi ctx ~domain:dd
        ~nics:(List.map fst links)
        ~overheads:Kite_drivers.Overheads.kite ()
    in
    (* Must match the datagram size nuttcp actually sends. *)
    let payload = 8192 in
    let received = ref 0 and running = ref nnics in
    Scenario.run hv ~what:"scale" @@ fun finish ->
    let fronts =
      List.mapi
        (fun i (_, client_nic) ->
          let domu =
            Kite_xen.Hypervisor.create_domain hv
              ~name:(Printf.sprintf "domu%d" i) ~kind:Kite_xen.Domain.Dom_u
              ~vcpus:4 ~mem_mb:2048
          in
          (* VIF placement is (frontend id + devid) mod nnics; guests are
             created in order, so give each the devid that lands it on its
             own NIC's bridge. *)
          let devid =
            (nnics - (domu.Kite_xen.Domain.id mod nnics) + i) mod nnics
          in
          Kite_drivers.Toolstack.add_vif ctx ~backend:dd ~frontend:domu ~devid
            ();
          let front =
            Kite_drivers.Netfront.create ctx ~domain:domu ~backend:dd ~devid ()
          in
          let subnet = Printf.sprintf "10.%d.0" i in
          let guest_ip = Kite_net.Ipv4addr.of_string (subnet ^ ".2") in
          let guest =
            Kite_net.Stack.create sched
              ~name:(Printf.sprintf "guest%d" i)
              ~dev:(Kite_drivers.Netfront.netdev front)
              ~mac:(Kite_net.Macaddr.make_local (100 + i))
              ~ip:guest_ip
              ~netmask:(Kite_net.Ipv4addr.of_string "255.255.255.0")
              ~rx_cost:(Time.ns 1500) ()
          in
          let client =
            Kite_net.Stack.create sched
              ~name:(Printf.sprintf "client%d" i)
              ~dev:(Kite_drivers.Netif.of_nic client_nic)
              ~mac:(Kite_net.Macaddr.make_local (200 + i))
              ~ip:(Kite_net.Ipv4addr.of_string (subnet ^ ".9"))
              ~netmask:(Kite_net.Ipv4addr.of_string "255.255.255.0")
              ~rx_cost:(Time.us 1) ()
          in
          Process.spawn sched ~name:(Printf.sprintf "load%d" i) (fun () ->
              Kite_drivers.Netfront.wait_connected front;
              Process.sleep (Time.ms 5);
              BT.Nuttcp.run ~sched ~client ~server:guest ~server_ip:guest_ip
                ~port:(5001 + (10 * i))
                ~duration
                ~on_done:(fun r ->
                  received := !received + r.BT.Nuttcp.received;
                  decr running;
                  if !running = 0 then
                    finish
                      (float_of_int (!received * payload * 8)
                      /. Time.to_sec_f duration /. 1e9))
                ());
          front)
        links
    in
    Scenario.register_teardown ctx ~dd
      ~stop:(fun () ->
        Kite_drivers.Netback.stop (Kite_drivers.Net_app.netback app))
      ~shutdown:(fun () -> List.iter Kite_drivers.Netfront.shutdown fronts)
  in
  let one = run 1 in
  let two = run 2 in
  let t =
    Table.create ~title:"Extension: multi-NIC scaling (one Kite domain)"
      ~columns:
        [ ("configuration", Table.Left); ("aggregate UDP (Gbps)", Table.Right) ]
  in
  Table.add_rows t
    [
      [ "1 NIC, 1 vCPU"; fnum one ];
      [ "2 NICs, 2 vCPUs"; fnum two ];
    ];
  Table.note t
    (Printf.sprintf
       "scaling factor %.2fx — §3.1: \"several NICs for better I/O scaling\""
       (two /. one));
  { tables = [ t ] }

(* The paper's abstract claim that unikernel service VMs "reduce memory
   overheads": assignment and steady-state working set per domain, and
   what that adds up to on an enterprise host with many devices (§1). *)
let memory ~quick:_ =
  let t =
    Table.create ~title:"Extension: service-VM memory footprint"
      ~columns:
        [ ("domain", Table.Left); ("assigned (MB)", Table.Right);
          ("resident (MB)", Table.Right); ("image (MB)", Table.Right) ]
  in
  List.iter
    (fun p ->
      Table.add_row t
        [
          p.Os_profile.profile_name;
          fint p.Os_profile.assigned_mem_mb;
          fint p.Os_profile.resident_mem_mb;
          fnum (Image.total_mb p.Os_profile.image);
        ])
    Os_profile.all;
  let kite = Os_profile.get Os_profile.Kite_network in
  let linux = Os_profile.get Os_profile.Linux_network in
  Table.note t
    (Printf.sprintf
       "a bare-metal host with 8 devices saves %d MB of assignment (%d MB \
        resident) by using Kite domains"
       (8 * (linux.Os_profile.assigned_mem_mb - kite.Os_profile.assigned_mem_mb))
       (8 * (linux.Os_profile.resident_mem_mb - kite.Os_profile.resident_mem_mb)));
  { tables = [ t ] }

(* xentrace-style accounting: which hypercalls a driver domain issues
   under a fixed workload, Kite vs Linux — the per-operation costs §4.2
   reasons about, measured rather than asserted.  Implemented on the
   kite_trace hypercall profile: a private sink traces both testbeds,
   in place of any sink an enclosing [kite_ctl trace] armed. *)
let hypercalls ~quick =
  let pings = if quick then 5 else 20 in
  let module Trace = Kite_trace.Trace in
  let sink = Trace.sink () in
  let run flavor =
    let s = Scenario.network ~flavor () in
    net_run s ~what:"hypercalls" (fun finish ->
        for seq = 1 to pings do
          ignore
            (Kite_net.Stack.ping s.Scenario.client_stack
               ~dst:s.Scenario.guest_ip ~seq ())
        done;
        finish ());
    s.Scenario.dd.Kite_xen.Domain.name
  in
  let kdd, ldd =
    Obs.run { (Obs.current ()) with trace = Some sink } (fun () ->
        let kdd = run Scenario.Kite in
        let ldd = run Scenario.Linux in
        (kdd, ldd))
  in
  (* Per-driver-domain operation counts out of the exact trace profile. *)
  let counts dd =
    List.filter_map
      (fun (_machine, domain, op, count, _total) ->
        if domain = dd then Some (op, count) else None)
      (Trace.hypercall_profile (Trace.traces sink))
  in
  let kc = counts kdd and lc = counts ldd in
  let ops =
    List.sort_uniq String.compare (List.map fst kc @ List.map fst lc)
  in
  let get c op = Option.value ~default:0 (List.assoc_opt op c) in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Extension: driver-domain hypercalls for %d pings (xentrace-style)"
           pings)
      ~columns:
        [ ("operation", Table.Left); ("Linux DD", Table.Right);
          ("Kite DD", Table.Right) ]
  in
  List.iter
    (fun op -> Table.add_row t [ op; fint (get lc op); fint (get kc op) ])
    ops;
  let total c = List.fold_left (fun acc (_, n) -> acc + n) 0 c in
  Table.add_row t [ "TOTAL"; fint (total lc); fint (total kc) ];
  Table.add_row t
    [
      "per ping";
      fnum (float_of_int (total lc) /. float_of_int pings);
      fnum (float_of_int (total kc) /. float_of_int pings);
    ];
  Table.note t
    "protocol hypercalls are identical per packet; the gap is the Linux \
     kernel backend's per-packet grant bookkeeping (grant_op.kernel, \
     traced at zero cost -- its CPU time is inside the calibrated \
     per-packet figures)";
  { tables = [ t ] }

(* Multi-queue dataplane scaling: one guest, one NIC, [nq] negotiated
   Tx/Rx ring pairs, and a driver domain with [nq] vCPUs so the
   per-queue pusher threads genuinely overlap.  One producer per queue
   in the guest blasts frames whose flow hash lands on its queue; the
   NIC is modelled at 100 Gbps so the wire is not what saturates — the
   measured ceiling is the driver domain's per-packet CPU work, which
   is what extra queues parallelize. *)
let mq_run_gbps ~duration ~mq nq =
  let hv = Kite_xen.Hypervisor.create () in
  (* Hand-built testbed, armed and torn down like the others: the
     armed-vs-disarmed tests arm every sink on exactly this workload. *)
  let ctx = Scenario.arm hv "mq-" in
  let sched = Kite_xen.Hypervisor.sched hv in
  let dd =
    Kite_xen.Hypervisor.create_domain hv ~name:"netdd"
      ~kind:Kite_xen.Domain.Driver_domain ~vcpus:nq ~mem_mb:1024
  in
  let domu =
    Kite_xen.Hypervisor.create_domain hv ~name:"domu"
      ~kind:Kite_xen.Domain.Dom_u ~vcpus:(2 * nq) ~mem_mb:2048
  in
  let srv =
    Kite_devices.Nic.create sched ~name:"eth-srv"
      ~line_rate_gbps:100.0 ~queue_limit:65536 ()
  in
  let cli =
    Kite_devices.Nic.create sched ~name:"eth-cli"
      ~line_rate_gbps:100.0 ~queue_limit:65536 ()
  in
  Kite_devices.Nic.connect srv cli ~propagation:(Time.ns 500);
  let app =
    Kite_drivers.Net_app.run ctx ~domain:dd ~nic:srv
      ~overheads:Kite_drivers.Overheads.kite ()
  in
  let queues = if mq then Some nq else None in
  Kite_drivers.Toolstack.add_vif ctx ~backend:dd ~frontend:domu ~devid:0
    ?queues ();
  let front =
    Kite_drivers.Netfront.create ctx ~domain:domu ~backend:dd ~devid:0
      ?num_queues:queues ()
  in
  Scenario.register_teardown ctx ~dd
    ~stop:(fun () ->
      Kite_drivers.Netback.stop (Kite_drivers.Net_app.netback app))
    ~shutdown:(fun () -> Kite_drivers.Netfront.shutdown front);
  let dev = Kite_drivers.Netfront.netdev front in
  Kite_net.Netdev.set_up dev true;
  let frame_len = 1500 in
  (* Broadcast destination (the bridge floods it out the physical NIC);
     byte 6 is brute-forced through the steering hash so producer [q]'s
     flow lands on queue [q]. *)
  let frame_for q =
    let f = Bytes.make frame_len '\000' in
    Bytes.fill f 0 6 '\xff';
    let b = ref 0 in
    Bytes.set f 6 (Char.chr !b);
    while
      Kite_drivers.Netchannel.flow_hash f (max 1 nq) <> q && !b < 0xff
    do
      incr b;
      Bytes.set f 6 (Char.chr !b)
    done;
    f
  in
  let stop = ref false in
  Scenario.run hv ~what:"mq_run_gbps" @@ fun finish ->
  Kite_xen.Hypervisor.spawn hv domu ~name:"mq-load" (fun () ->
      Kite_drivers.Netfront.wait_connected front;
      for q = 0 to nq - 1 do
        let frame = frame_for q in
        Kite_xen.Hypervisor.spawn hv domu
          ~name:(Printf.sprintf "blast%d" q)
          (fun () ->
            while not !stop do
              Kite_net.Netdev.transmit dev frame
            done)
      done;
      Process.sleep (Time.ms 2);
      let rx0 = Kite_devices.Nic.rx_bytes cli in
      let t0 = Kite_xen.Hypervisor.now hv in
      Process.sleep duration;
      stop := true;
      let bytes = Kite_devices.Nic.rx_bytes cli - rx0 in
      let dt = Kite_xen.Hypervisor.now hv - t0 in
      finish (float_of_int (bytes * 8) /. Time.to_sec_f dt /. 1e9))

let mq_scale ~quick =
  let duration = if quick then Time.ms 3 else Time.ms 20 in
  let sweep = [ 1; 2; 4; 8 ] in
  let results =
    List.map (fun nq -> (nq, mq_run_gbps ~duration ~mq:true nq)) sweep
  in
  let one = List.assoc 1 results in
  let t =
    Table.create ~title:"Extension: multi-queue dataplane scaling (net Tx)"
      ~columns:
        [
          ("queues", Table.Right); ("aggregate Tx (Gbps)", Table.Right);
          ("vs 1 queue", Table.Right);
        ]
  in
  List.iter
    (fun (nq, gbps) ->
      Table.add_row t
        [ fint nq; fnum gbps; Printf.sprintf "%.2fx" (gbps /. one) ])
    results;
  Table.note t
    "per-queue rings + per-queue pusher threads on a matching vCPU count; \
     grant-copy hypercalls batched per drained run";
  { tables = [ t ] }

(* Critical-path attribution (lib/path): where does a request's
   simulated time go, and at what offered load does queueing overtake
   service?  Phase 1 drives a moderate open-loop load through both
   testbeds and renders the per-stage waterfall, checking the partition
   invariant — per-stage totals sum to the end-to-end time within 1%.
   Phase 2 measures the storage path's sustainable capacity closed-loop,
   then sweeps open-loop offered rate across it: below the knee the
   request's time is service, past it the accumulated queueing time
   takes over. *)
let latency_waterfall ~quick =
  let module Path = Kite_path.Path in
  (* The waterfall is the experiment's contract: arm private trace +
     path sinks where the enclosing run armed none (the restart-recovery
     pattern). *)
  let obs = Obs.current () in
  Obs.run
    {
      obs with
      trace = Obs.ensure obs.trace Kite_trace.Trace.sink;
      path = Obs.ensure obs.path Path.sink;
    }
  @@ fun () ->
  let engine_of ctx =
    match ctx.Kite_drivers.Xen_ctx.path with
    | Some p -> p
    | None -> failwith "latency-waterfall: no path engine attached"
  in
  let blk_data seq =
    Bytes.make
      (8 * Kite_drivers.Blkfront.sector_size)
      (Char.chr (Char.code 'a' + (seq mod 26)))
  in
  (* -- phase 1: the waterfall under moderate open-loop load ---------- *)
  let net_n = if quick then 200 else 1000 in
  let net_rate = 50_000. (* req/s, well under the Tx path's capacity *) in
  let net_path =
    let s = Scenario.network ~flavor:Scenario.Kite () in
    let p = engine_of s.Scenario.ctx in
    net_run s ~what:"latency-waterfall net" (fun finish ->
        let dev = Kite_drivers.Netfront.netdev s.Scenario.netfront in
        let frame = Bytes.make 1500 '\000' in
        Bytes.fill frame 0 6 '\xff';
        Kite_bench_tools.Openloop.run ~sched:s.Scenario.sched ~rate:net_rate
          ~burst:8
          ~burst_every:(Time.ms 1)
          ~duration:(Time.of_sec_f (float_of_int net_n /. net_rate))
          ~fire:(fun _ ->
            Kite_net.Netdev.transmit dev frame;
            true)
          ~on_done:(fun _ -> finish ())
          ());
    p
  in
  let blk_n = if quick then 150 else 600 in
  let blk_rate = 5_000. in
  let blk_path =
    let s = Scenario.storage ~flavor:Scenario.Kite () in
    let p = engine_of s.Scenario.bctx in
    blk_run s ~what:"latency-waterfall blk" (fun finish ->
        let front = s.Scenario.blkfront in
        Kite_bench_tools.Openloop.run ~sched:s.Scenario.bsched ~rate:blk_rate
          ~duration:(Time.of_sec_f (float_of_int blk_n /. blk_rate))
          ~fire:(fun seq ->
            Kite_drivers.Blkfront.write front
              ~sector:(8 * (seq mod 1024))
              (blk_data seq);
            true)
          ~on_done:(fun _ -> finish ())
          ());
    p
  in
  let engines = [ net_path; blk_path ] in
  (* The acceptance check rendered as data: stages partition each span,
     so the per-stage totals must reproduce the end-to-end total. *)
  let partition =
    Table.create ~title:"Partition invariant: stages sum to end-to-end"
      ~columns:
        [
          ("machine", Table.Left);
          ("kind", Table.Left);
          ("spans", Table.Right);
          ("stage sum ms", Table.Right);
          ("end-to-end ms", Table.Right);
          ("delta", Table.Right);
        ]
  in
  List.iter
    (fun p ->
      let stats = Path.stage_stats p in
      let kinds =
        List.fold_left
          (fun acc s ->
            if List.mem s.Path.st_kind acc then acc
            else acc @ [ s.Path.st_kind ])
          [] stats
      in
      List.iter
        (fun kind ->
          let stage_sum =
            List.fold_left
              (fun acc s ->
                if s.Path.st_kind = kind then acc + s.Path.st_total_ns
                else acc)
              0 stats
          in
          let e2e = Path.span_total_ns p ~kind in
          let delta =
            Float.abs (float_of_int (stage_sum - e2e))
            /. float_of_int (max 1 e2e)
          in
          if delta > 0.01 then
            failwith
              (Printf.sprintf
                 "latency-waterfall: %s/%s stage sum %d ns vs end-to-end %d \
                  ns (%.2f%% apart)"
                 (Path.name p) kind stage_sum e2e (100. *. delta));
          Table.add_row partition
            [
              Path.name p;
              kind;
              fint (Path.span_count p ~kind);
              Table.fmt_f (float_of_int stage_sum /. 1e6);
              Table.fmt_f (float_of_int e2e /. 1e6);
              Table.fmt_pct (100. *. delta);
            ])
        kinds)
    engines;
  Table.note partition "the runner fails if any kind drifts past 1%";
  (* -- phase 2: offered-rate sweep on the storage path --------------- *)
  (* Sustainable capacity first, measured closed-loop: a few workers
     writing back-to-back; completions per second is the service rate
     the open-loop sweep is calibrated against. *)
  let capacity =
    let s = Scenario.storage ~flavor:Scenario.Kite () in
    let hv = s.Scenario.bhv in
    blk_run s ~what:"latency-waterfall capacity" (fun finish ->
        let front = s.Scenario.blkfront in
        let window = if quick then Time.ms 2 else Time.ms 10 in
        let workers = 8 in
        let stop = ref false in
        let completed = ref 0 in
        let live = ref workers in
        let t0 = Kite_xen.Hypervisor.now hv in
        for w = 0 to workers - 1 do
          Kite_xen.Hypervisor.spawn hv s.Scenario.bdomu ~name:"cap-worker"
            (fun () ->
              while not !stop do
                Kite_drivers.Blkfront.write front
                  ~sector:(8 * ((w * 128) + (!completed mod 128)))
                  (blk_data !completed);
                incr completed
              done;
              decr live;
              if !live = 0 then
                finish
                  (float_of_int !completed
                  /. Time.to_sec_f (Kite_xen.Hypervisor.now hv - t0)))
        done;
        Kite_xen.Hypervisor.spawn hv s.Scenario.bdomu ~name:"cap-stop"
          (fun () ->
            Process.sleep window;
            stop := true))
  in
  let sat_n = if quick then 150 else 500 in
  let step multiple =
    let rate = multiple *. capacity in
    let s = Scenario.storage ~flavor:Scenario.Kite () in
    let hv = s.Scenario.bhv in
    let p = engine_of s.Scenario.bctx in
    let lats = ref [] in
    let r =
      blk_run s ~what:"latency-waterfall saturation step" (fun finish ->
          let front = s.Scenario.blkfront in
          Kite_bench_tools.Openloop.run ~sched:s.Scenario.bsched ~rate
            ~duration:(Time.of_sec_f (float_of_int sat_n /. rate))
            ~fire:(fun seq ->
              let t0 = Kite_xen.Hypervisor.now hv in
              Kite_drivers.Blkfront.write front
                ~sector:(8 * (seq mod 1024))
                (blk_data seq);
              lats :=
                Time.to_ms_f (Kite_xen.Hypervisor.now hv - t0) :: !lats;
              true)
            ~on_done:finish ())
    in
    {
      Path_report.sat_rate = rate;
      sat_offered = r.Kite_bench_tools.Openloop.offered;
      sat_completed = r.Kite_bench_tools.Openloop.completed;
      sat_p99_ms = Summary.percentile !lats 99.;
      sat_queue_ms =
        float_of_int (Path.class_total_ns p ~kind:"blk" Path.Queueing) /. 1e6;
      sat_service_ms =
        float_of_int (Path.class_total_ns p ~kind:"blk" Path.Service) /. 1e6;
    }
  in
  let rows = List.map step [ 0.3; 0.8; 1.5; 3.0; 6.0 ] in
  (* The acceptance check for the knee: queueing must overtake service
     somewhere in the sweep, and must not dominate at the lowest rate. *)
  let queue_bound r =
    r.Path_report.sat_queue_ms > r.Path_report.sat_service_ms
  in
  (match rows with
  | first :: _ ->
      if queue_bound first then
        failwith
          "latency-waterfall: queueing already dominates at 0.3x capacity";
      if not (List.exists queue_bound rows) then
        failwith
          "latency-waterfall: no saturation knee up to 6x measured capacity"
  | [] -> assert false);
  {
    tables =
      [
        Path_report.waterfall_table engines;
        partition;
        Path_report.devices_table engines;
        Path_report.cpu_table engines;
        Path_report.saturation_table ~kind:"blk" rows;
      ];
  }

(* ------------------------------------------------------------------ *)
(* Swarm: open-loop client populations with SLO-gated overload         *)
(* ------------------------------------------------------------------ *)

module Swarm = Kite_swarm.Swarm
module Swarm_profile = Kite_swarm.Profile
module Oracle = Kite_swarm.Oracle

(* Start the app's server in the guest and hand back a session factory
   the swarm driver calls once per arriving client.  Sessions are
   numbered so key / row spaces spread across the population. *)
let swarm_sessions (s : Scenario.net) app =
  let sched = s.Scenario.sched in
  let tcp = s.Scenario.guest_tcp in
  let dst = s.Scenario.guest_ip in
  let client = s.Scenario.client_tcp in
  let seq = ref 0 in
  match app with
  | "httpd" ->
      ignore (Kite_apps.Httpd.start tcp ~sched ());
      fun () -> Kite_apps.Clients.httpd client ~dst ()
  | "kvstore" ->
      ignore (Kite_apps.Kvstore.start tcp ~sched ());
      fun () ->
        incr seq;
        Kite_apps.Clients.kvstore client ~dst
          ~key:(Printf.sprintf "sw%d" (!seq mod 4096))
          ()
  | "memcache" ->
      ignore (Kite_apps.Memcache.start tcp ~sched ());
      fun () ->
        incr seq;
        Kite_apps.Clients.memcache client ~dst
          ~key:(Printf.sprintf "sw%d" (!seq mod 4096))
          ()
  | "sqldb" ->
      ignore
        (Kite_apps.Sqldb.start tcp ~backend:Kite_apps.Sqldb.Memory ~tables:4
           ~rows_per_table:2048 ~sched ());
      fun () ->
        incr seq;
        Kite_apps.Clients.sqldb client ~dst ~table:(!seq mod 4)
          ~row:(!seq * 37) ()
  | other ->
      failwith
        (Printf.sprintf "swarm: unknown app %S (have httpd,kvstore,memcache,sqldb)"
           other)

let swarm_driver (s : Scenario.net) app =
  let mk = swarm_sessions s app in
  {
    Swarm.d_app = app;
    d_connect =
      (fun () ->
        match mk () with
        | sess ->
            Some
              {
                Swarm.c_request =
                  (fun ~size ~slow ->
                    sess.Kite_apps.Clients.request ~size ~slow);
                c_close = sess.Kite_apps.Clients.close;
              }
        | exception _ -> None);
  }

let swarm_run ~flavor ~app ~p ~clients ?rate ~seed ?impair () =
  let s = Scenario.network ~flavor ~seed:(2022 + seed) ?impair () in
  net_run s ~what:("swarm " ^ app) (fun finish ->
      let driver = swarm_driver s app in
      Swarm.run ~sched:s.Scenario.sched ~seed ?rate ~profile:p ~clients
        ~driver ~on_done:finish ())

let swarm_campaign ?(flavor = Scenario.Kite) ?(app = "httpd") ?impair
    ?(profile = "web") ?(clients = 5_000) ?rate ?(seed = 7) () =
  match Swarm_profile.find profile with
  | None ->
      invalid_arg
        (Printf.sprintf "swarm: unknown profile %S (have %s)" profile
           Swarm_profile.names)
  | Some p -> swarm_run ~flavor ~app ~p ~clients ?rate ~seed ?impair ()

(* Closed-loop capacity in requests/s: a fixed worker pool issuing
   back-to-back requests over persistent sessions for a short window —
   the service rate the open-loop sweep is calibrated against. *)
let swarm_capacity ~flavor ~app ~quick =
  let s = Scenario.network ~flavor () in
  net_run s ~what:("swarm capacity " ^ app) (fun finish ->
      let mk = swarm_sessions s app in
      let engine = Process.engine s.Scenario.sched in
      let window = if quick then Time.ms 20 else Time.ms 100 in
      let workers = 16 in
      let stop = ref false in
      let completed = ref 0 in
      let live = ref workers in
      let t0 = Engine.now engine in
      for _ = 1 to workers do
        Process.spawn s.Scenario.sched ~name:"swarm-cap" (fun () ->
            let sess = mk () in
            while not !stop do
              if sess.Kite_apps.Clients.request ~size:2048 ~slow:false then
                incr completed
            done;
            sess.Kite_apps.Clients.close ();
            decr live;
            if !live = 0 then
              finish
                (float_of_int !completed
                /. Time.to_sec_f (Engine.now engine - t0)))
      done;
      Process.spawn s.Scenario.sched ~name:"swarm-cap-stop" (fun () ->
          Process.sleep window;
          stop := true))

(* One profile for the whole sweep: modest keep-alive sessions, fixed
   sizes, no modulation — the knee must come from the backend, not the
   traffic shape. *)
let swarm_sweep_profile =
  {
    (Option.get (Swarm_profile.find "steady")) with
    Swarm_profile.sizes = Swarm_profile.Fixed 2048;
  }

let swarm_sweep ~flavor ~app ~quick ~capacity =
  let clients = if quick then 600 else 3_000 in
  let rps = swarm_sweep_profile.Swarm_profile.requests_per_session in
  let step mult =
    let session_rate = mult *. capacity /. float_of_int rps in
    let r =
      swarm_run ~flavor ~app ~p:swarm_sweep_profile ~clients
        ~rate:session_rate ~seed:11 ()
    in
    {
      Oracle.st_mult = mult;
      st_offered_rps = mult *. capacity;
      st_goodput_rps = r.Swarm.sw_goodput_rps;
      st_p99_ms = r.Swarm.sw_p99_ms;
      st_p999_ms = r.Swarm.sw_p999_ms;
      st_errors = r.Swarm.sw_errors;
    }
  in
  let steps = List.map step [ 0.5; 1.0; 1.8; 3.0 ] in
  let verdict =
    Oracle.assess ~clients_per_step:(clients * rps) ~capacity_rps:capacity
      steps
  in
  (steps, verdict)

let swarm ~quick =
  (* -- headline: a six-figure client population through Kite httpd --- *)
  let headline app clients =
    let cap = swarm_capacity ~flavor:Scenario.Kite ~app ~quick in
    (* Offer ~40% of closed-loop capacity: the SLO-met regime. *)
    let session_rate =
      0.4 *. cap
      /. float_of_int
           (Option.get (Swarm_profile.find "web")).Swarm_profile
             .requests_per_session
    in
    swarm_campaign ~app ~clients ~rate:session_rate ()
  in
  let headline_clients = if quick then 4_000 else 110_000 in
  let camp = headline "httpd" headline_clients in
  if camp.Swarm.sw_clients < headline_clients then
    failwith "swarm: headline campaign lost clients";
  (* -- overload sweeps: knee + graceful degradation, both flavors ---- *)
  let sweep_apps = [ "httpd"; "kvstore" ] in
  let sweeps =
    List.map
      (fun app ->
        let rows =
          List.map
            (fun flavor ->
              let cap = swarm_capacity ~flavor ~app ~quick in
              let steps, verdict =
                swarm_sweep ~flavor ~app ~quick ~capacity:cap
              in
              (Scenario.flavor_name flavor, flavor, steps, verdict))
            [ Scenario.Kite; Scenario.Linux ]
        in
        (* The asserted oracle: every flavor must show a knee; the Kite
           flavor must degrade gracefully past it. *)
        List.iter
          (fun (name, flavor, _, (v : Oracle.verdict)) ->
            if v.Oracle.vd_knee = None then
              failwith
                (Printf.sprintf "swarm %s/%s: no saturation knee located" app
                   name);
            if flavor = Scenario.Kite && not v.Oracle.vd_ok then
              failwith
                (Printf.sprintf "swarm %s: Kite degradation oracle violated: %s"
                   app
                   (String.concat "; " v.Oracle.vd_reasons)))
          rows;
        (app, List.map (fun (n, _, s, v) -> (n, s, v)) rows))
      sweep_apps
  in
  {
    tables =
      Swarm_report.campaign_table [ camp ]
      :: List.map (fun (app, rows) -> Swarm_report.sweep_table ~app rows)
           sweeps;
  }

let all =
  [
    ("fig1a", "Figure 1a: driver CVEs per year", fig1a);
    ("fig4a", "Figure 4a: syscall counts", fig4a);
    ("fig4b", "Figure 4b: image sizes", fig4b);
    ("fig4c", "Figure 4c: boot times", fig4c);
    ("fig5", "Figures 1b & 5: ROP gadgets", fig5);
    ("table3", "Table 3: CVEs mitigated by syscall removal", table3);
    ("fig6", "Figure 6: nuttcp throughput", fig6);
    ("fig7", "Figure 7: network latency", fig7);
    ("fig8a", "Figure 8a: Apache vs file size", fig8a);
    ("fig8b", "Figure 8b: Apache at 512 KiB", fig8b);
    ("fig9", "Figure 9: Redis throughput", fig9);
    ("fig10", "Figure 10: MySQL over the network domain", fig10);
    ("table4", "Table 4: relative standard deviations", table4);
    ("fig11", "Figure 11: dd throughput", fig11);
    ("fig12", "Figure 12: sysbench fileio", fig12);
    ("fig13", "Figure 13: MySQL over the storage domain", fig13);
    ("fig14", "Figure 14: filebench fileserver", fig14);
    ("fig15", "Figure 15: filebench MongoDB", fig15);
    ("fig16", "Figure 16: filebench webserver", fig16);
    ("dhcp", "§5.5: DHCP daemon VM", dhcp);
    ("table1", "Table 1: lines of code", table1);
    ("abl-persist", "Ablation: persistent grants", abl_persistent);
    ("abl-batch", "Ablation: request batching", abl_batching);
    ("abl-indirect", "Ablation: indirect segments", abl_indirect);
    ("abl-threads", "Ablation: threaded handlers", abl_wake);
    ("restart", "Extension: driver-domain restart recovery", restart);
    ( "restart-recovery",
      "Extension: measured crash/restart recovery",
      restart_recovery );
    ("scale", "Extension: multi-NIC scaling", scale);
    ("mq-scale", "Extension: multi-queue dataplane scaling", mq_scale);
    ("memory", "Extension: service-VM memory footprint", memory);
    ("hypercalls", "Extension: driver-domain hypercall profile", hypercalls);
    ( "latency-waterfall",
      "Extension: per-stage latency waterfall & saturation knee",
      latency_waterfall );
    ( "swarm",
      "Extension: open-loop client swarm & SLO-gated overload",
      swarm );
  ]

let find id = List.find_opt (fun (i, _, _) -> i = id) all
