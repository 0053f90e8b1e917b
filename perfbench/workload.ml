(* The benchmark's four workloads.  Each builds a Kite-flavored testbed
   through [Kite.Scenario], drives it from the benchmark's own simulated
   processes, verifies every output, and returns raw measurements.  The
   benchmark reaches the layers only through their public functions and
   times only its own calls into them. *)

open Kite_sim
module Scenario = Kite.Scenario

type scale = Full | Smoke

let names = [ "net-rx-udp"; "blk-seq"; "swarm-kv"; "net-rx-udp-obs" ]

type result = {
  attempted : int;
  failed : int;
  ok : bool;  (** every output verified and every oracle held *)
  digest : string;  (** fingerprint of the simulated outputs *)
  metrics : (string * float) list;
  notes : (string * string) list;
}

(* The process's CPU seconds.  The simulator is one thread, so this is
   the host time the workload costs, without the time a busy machine
   keeps the process waiting or steals from the VM. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Host speed.  On a shared machine the CPU runs up to twice as slow for
   seconds at a time while neighbours load it, and CPU time alone cannot
   tell that from a slower program.  So every host time is scaled by
   reference kernels that belong to the benchmark, timed in a chunk of
   about 1.5 ms every 20 ms of CPU, interleaved with the workload (see
   README.md, "Host noise").  [Compute] is shaped like the engine's hot
   loop: pushes and pops on a binary heap of integers that stays in the
   caches.  [Memory] copies 1 MiB blocks across a 32 MiB arena, larger
   than the caches, the way blk-seq moves its blocks.  The workloads'
   times follow the one that is shaped like them: net and swarm runs
   follow [Compute], blk-seq follows [Memory]. *)
module Speed = struct
  type kernel = Compute | Memory

  let index = function Compute -> 0 | Memory -> 1

  (* One chunk's CPU seconds on the reference host (2-vCPU Intel Xeon at
     2.0 GHz, quiet). *)
  let reference = function Compute -> 0.001 | Memory -> 0.0005
  let heap = Array.make 4096 0
  let size = ref 0
  let key = ref 1

  let push v =
    let i = ref !size in
    heap.(!i) <- v;
    incr size;
    while !i > 0 && heap.((!i - 1) / 2) > heap.(!i) do
      let p = (!i - 1) / 2 in
      let t = heap.(p) in
      heap.(p) <- heap.(!i);
      heap.(!i) <- t;
      i := p
    done

  let pop () =
    decr size;
    heap.(0) <- heap.(!size);
    let i = ref 0 and go = ref true in
    while !go do
      let l = (2 * !i) + 1 in
      let c = if l + 1 < !size && heap.(l + 1) < heap.(l) then l + 1 else l in
      if c < !size && heap.(c) < heap.(!i) then begin
        let t = heap.(c) in
        heap.(c) <- heap.(!i);
        heap.(!i) <- t;
        i := c
      end
      else go := false
    done

  let compute () =
    for _ = 1 to 24_000 do
      key := ((!key * 1103515245) + 12345) land 0x3fffffff;
      if !size < 2048 || (!key land 1 = 0 && !size < Array.length heap) then
        push !key
      else pop ()
    done

  (* Outside the OCaml heap, so that [peak_heap_mb] stays the
     workload's. *)
  let bytes n =
    let a = Bigarray.(Array1.create char c_layout n) in
    Bigarray.Array1.fill a 'a';
    a

  let block = bytes (1 lsl 20)
  let arena = bytes (32 lsl 20)
  let offset = ref 0

  let memory () =
    for _ = 1 to 4 do
      Bigarray.Array1.blit block (Bigarray.Array1.sub arena !offset (1 lsl 20));
      offset := (!offset + (1 lsl 20)) land ((32 lsl 20) - 1)
    done

  let spent = [| 0.; 0. |]
  let chunks = ref 0
  let last = ref 0.

  let chunk () =
    let t0 = cpu () in
    compute ();
    let t1 = cpu () in
    memory ();
    let t2 = cpu () in
    spent.(0) <- spent.(0) +. (t1 -. t0);
    spent.(1) <- spent.(1) +. (t2 -. t1);
    incr chunks;
    last := t2

  let tick () = if cpu () -. !last > 0.02 then chunk ()

  (* CPU seconds spent outside the kernels. *)
  let work () = cpu () -. spent.(0) -. spent.(1)

  (* How many times slower than the reference host [k] ran. *)
  let slowdown k =
    if !chunks = 0 then chunk ();
    spent.(index k) /. float_of_int !chunks /. reference k
end

(* Exact latency samples (simulated ns), nearest-rank percentiles. *)
module Lat = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort compare s;
    s

  (* Microseconds; 0 when fewer than [min_beyond] samples lie beyond
     [q]. *)
  let pct_us ?(min_beyond = 10.) sorted q =
    let n = Array.length sorted in
    if float_of_int n *. (1. -. q) < min_beyond then 0.
    else
      let i = max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1) in
      float_of_int sorted.(i) /. 1e3
end

(* One run's environment and output.  [digest] is a 63-bit FNV-1a
   fingerprint of the simulated outputs, which every rep and the traced
   pass must reproduce bit for bit. *)
type env = {
  seed : int;
  traced : bool;
  mutable out : (string * float) list;
  mutable host : (string * float) list;
      (** host times in work seconds, scaled by the run's slowdown last *)
  mutable notes : (string * string) list;
  mutable digest : int;
}

let put env k v = env.out <- (k, v) :: env.out
let put_host env k v = env.host <- (k, v) :: env.host
let note env k v = env.notes <- (k, v) :: env.notes

let mix env v =
  for k = 0 to 7 do
    env.digest <- (env.digest lxor ((v lsr (8 * k)) land 0xff)) * 0x100000001b3
  done

let per_op v ops = float_of_int v /. float_of_int (max 1 ops)

let seeded_bytes seed n =
  let st = Random.State.make [| seed |] in
  Bytes.init n (fun _ -> Char.unsafe_chr (Random.State.bits st land 0xff))

(* The machine's public counters at one instant. *)
type snap = {
  s_work : float;
  s_sim : Time.t;
  s_gc : Gc.stat;
  s_counts : (string * int) list;  (** the [hypercall.*] counters *)
  s_busy : (string * Time.span) list;
}

let snapshot hv =
  let m = Kite_xen.Hypervisor.metrics hv in
  {
    s_work = Speed.work ();
    s_sim = Kite_xen.Hypervisor.now hv;
    s_gc = Gc.quick_stat ();
    s_counts =
      List.filter_map
        (fun k ->
          if String.starts_with ~prefix:"hypercall." k then
            Some (k, Metrics.count m k)
          else None)
        (Metrics.names m);
    s_busy = List.map (fun k -> (k, Metrics.busy m k)) (Metrics.busy_names m);
  }

let delta get a b k =
  Option.value ~default:0 (List.assoc_opt k (get b))
  - Option.value ~default:0 (List.assoc_opt k (get a))

(* Run the engine in 1 ms slices until [finished] holds: the testbed's
   daemons never drain the event queue on their own. *)
let drive hv ~limit finished =
  let deadline = Kite_xen.Hypervisor.now hv + limit in
  while (not (finished ())) && Kite_xen.Hypervisor.now hv < deadline do
    Kite_xen.Hypervisor.run_for hv (Time.ms 1);
    Speed.tick ()
  done;
  if not (finished ()) then failwith "perfbench: workload did not finish"

(* The traced pass samples the event-queue depth every simulated
   millisecond.  The callback only reads [Engine.pending], so the
   simulated outputs stay those of the plain runs. *)
let pending_sampler hv ~stop =
  let engine = Kite_xen.Hypervisor.engine hv in
  let depth = Lat.create () in
  let rec tick () =
    if not !stop then begin
      Lat.add depth (Engine.pending engine);
      ignore (Engine.schedule_after engine (Time.ms 1) tick)
    end
  in
  tick ();
  depth

(* The measured phase of one run: from the frontend reporting Connected
   to the workload finishing. *)
type phase = {
  hv : Kite_xen.Hypervisor.t;
  t_built : float;
  mutable connected : snap option;
  mutable finished : snap option;
  stop_sampler : bool ref;
  mutable depth : Lat.t option;
}

(* Build the testbed, timing the [Scenario] call. *)
let build env hv_of f =
  let t0 = Speed.work () in
  let s = f () in
  let t_built = Speed.work () in
  put_host env "core.build_ms" ((t_built -. t0) *. 1e3);
  ( s,
    {
      hv = hv_of s;
      t_built;
      connected = None;
      finished = None;
      stop_sampler = ref false;
      depth = None;
    } )

let on_connected env p =
  p.connected <- Some (snapshot p.hv);
  if env.traced then
    p.depth <- Some (pending_sampler p.hv ~stop:p.stop_sampler)

let on_finished p = p.finished <- Some (snapshot p.hv)

let finish p =
  drive p.hv ~limit:(Time.sec 600) (fun () -> p.finished <> None);
  p.stop_sampler := true

(* Metrics every workload reports, from the connected and finished
   snapshots; returns the phase's simulated length in seconds. *)
let common env p ~(dd : Kite_xen.Domain.t) ~domu ~ops =
  let c = Option.get p.connected and f = Option.get p.finished in
  let fops = float_of_int (max 1 ops) in
  let count k = delta (fun s -> s.s_counts) c f k in
  let hc k = count ("hypercall." ^ k) in
  let sim_span = f.s_sim - c.s_sim in
  put_host env "core.connect_ms" ((c.s_work -. p.t_built) *. 1e3);
  put env "core.sim_connect_ms" (Time.to_ms_f c.s_sim);
  put_host env "host_s" (f.s_work -. c.s_work);
  let top = (Gc.quick_stat ()).Gc.top_heap_words in
  put env "peak_heap_mb" (float_of_int (top * (Sys.word_size / 8)) /. 1e6);
  let gc field = field f.s_gc -. field c.s_gc in
  let gci field = float_of_int (field f.s_gc - field c.s_gc) in
  put env "minor_words_per_op" (gc (fun g -> g.Gc.minor_words) /. fops);
  put env "gc.promoted_words_per_op"
    (gc (fun g -> g.Gc.promoted_words) /. fops);
  put env "gc.minor_collections" (gci (fun g -> g.Gc.minor_collections));
  put env "gc.major_collections" (gci (fun g -> g.Gc.major_collections));
  let hypercalls =
    List.fold_left (fun acc (k, _) -> acc + count k) 0 f.s_counts
  in
  put env "xen.hypercalls_per_op" (per_op hypercalls ops);
  put env "xen.grant_copy_per_op" (per_op (hc "grant_copy") ops);
  put env "xen.grant_map_per_op" (per_op (hc "grant_map") ops);
  put env "xen.evtchn_send_per_op" (per_op (hc "evtchn_send") ops);
  put env "xen.xenstore_ops_per_op" (per_op (hc "xenstore_op") ops);
  put env "drivers.ops_per_notify" (per_op ops (hc "evtchn_send"));
  let util (dom : Kite_xen.Domain.t) =
    let busy = delta (fun s -> s.s_busy) c f ("vcpu." ^ dom.name) in
    per_op busy (sim_span * dom.vcpus)
  in
  put env "drivers.dd_vcpu_util" (util dd);
  put env "drivers.domu_vcpu_util" (util domu);
  note env "driver_domain" dd.name;
  mix env ops;
  mix env c.s_sim;
  mix env sim_span;
  List.iter (fun (k, _) -> mix env (count k)) f.s_counts;
  Time.to_sec_f sim_span

let put_latency env lat =
  let s = Lat.sorted lat in
  Array.iter (mix env) s;
  put env "sim_lat_p50_us" (Lat.pct_us s 0.50);
  put env "sim_lat_p99_us" (Lat.pct_us s 0.99);
  put env "sim_lat_p999_us" (Lat.pct_us s 0.999)

let nic_metrics env ~ops nics =
  let sum f = List.fold_left (fun acc n -> acc + f n) 0 nics in
  let frames =
    sum Kite_devices.Nic.rx_packets + sum Kite_devices.Nic.tx_packets
  in
  mix env frames;
  put env "devices.nic_frames_per_op" (per_op frames ops);
  put env "devices.nic_dropped" (float_of_int (sum Kite_devices.Nic.dropped))

let teardown env =
  let t0 = Speed.work () in
  Scenario.teardown_all ();
  put_host env "core.teardown_ms" ((Speed.work () -. t0) *. 1e3)

type outcome = {
  attempted : int;
  failed : int;
  ops : int;
  depth : Lat.t option;
}

(* ------------------------------------------------------------------ *)
(* net-rx-udp: Fig 6's nuttcp shape, client -> guest                   *)
(* ------------------------------------------------------------------ *)

let payload = 8192
let port = 5001
let header = 16

(* The seed picks the datagram body.  Every delivered datagram must carry
   it intact, plus a unique sequence number and its send instant, from
   which its one-way latency is taken. *)
let net_rx env ~template ~duration =
  let s, p =
    build env
      (fun s -> s.Scenario.hv)
      (fun () -> Scenario.network ~flavor:Scenario.Kite ())
  in
  let engine = Process.engine s.Scenario.sched in
  let tick = Time.us 100 in
  let per_tick = 7.0e9 /. 8.0 *. Time.to_sec_f tick /. float_of_int payload in
  let max_seq = int_of_float (per_tick *. float_of_int (duration / tick)) + 2 in
  let seen = Bytes.make max_seq '\000' in
  let want = Bytes.copy template in
  let lat = Lat.create () in
  let sent = ref 0 and bad = ref 0 in
  Scenario.when_net_ready s (fun () ->
      on_connected env p;
      let rx = Kite_net.Stack.udp_bind s.Scenario.guest_stack ~port in
      Process.spawn s.Scenario.sched ~daemon:true ~name:"perfbench-rx"
        (fun () ->
          while true do
            let _, _, b = Kite_net.Stack.udp_recv rx in
            let seq, at =
              if Bytes.length b = payload then begin
                Bytes.blit b 0 want 0 header;
                ( Int64.to_int (Bytes.get_int64_le b 0),
                  Int64.to_int (Bytes.get_int64_le b 8) )
              end
              else (-1, 0)
            in
            if
              seq >= 0 && seq < max_seq
              && Bytes.get seen seq = '\000'
              && Bytes.equal b want
            then begin
              Bytes.set seen seq '\001';
              Lat.add lat (Engine.now engine - at)
            end
            else incr bad
          done);
      let tx =
        Kite_net.Stack.udp_bind s.Scenario.client_stack ~port:(port + 1)
      in
      let data = Bytes.copy template in
      let deadline = Engine.now engine + duration in
      (* nuttcp's burst clock: 7 Gbps offered, fractional datagrams carry
         over between 100 us ticks so the rate is exact. *)
      let credit = ref 0.0 in
      while Engine.now engine < deadline do
        credit := !credit +. per_tick;
        while !credit >= 1.0 do
          Bytes.set_int64_le data 0 (Int64.of_int !sent);
          Bytes.set_int64_le data 8 (Int64.of_int (Engine.now engine));
          Kite_net.Stack.udp_send s.Scenario.client_stack tx
            ~dst:s.Scenario.guest_ip ~dst_port:port data;
          incr sent;
          credit := !credit -. 1.0
        done;
        Process.sleep tick
      done;
      Process.sleep (Time.ms 50);
      on_finished p);
  finish p;
  let ops = lat.Lat.n in
  ignore (common env p ~dd:s.Scenario.dd ~domu:s.Scenario.domu ~ops);
  let window = Time.to_sec_f duration in
  put env "sim_ops_per_s" (float_of_int ops /. window);
  put env "sim_mbytes_per_s" (float_of_int (ops * payload) /. window /. 1e6);
  put_latency env lat;
  nic_metrics env ~ops [ s.Scenario.server_nic; s.Scenario.client_nic ];
  teardown env;
  { attempted = !sent; failed = max (!sent - ops) !bad; ops; depth = p.depth }

(* ------------------------------------------------------------------ *)
(* blk-seq: Fig 11's dd shape, written then read back and verified     *)
(* ------------------------------------------------------------------ *)

let block = 1 lsl 20
let sector = Kite_drivers.Blkfront.sector_size
let sectors_per_block = block / sector

(* Every sector is stamped with (pass, block, sector) over the seeded
   body, so a stale, misplaced or torn read is caught. *)
let fill_block ~base ~pass ~blk dst =
  Bytes.blit base 0 dst 0 block;
  for s = 0 to sectors_per_block - 1 do
    Bytes.set_int32_le dst (s * sector) (Int32.of_int pass);
    Bytes.set_int32_le dst ((s * sector) + 4) (Int32.of_int blk);
    Bytes.set_int32_le dst ((s * sector) + 8) (Int32.of_int s)
  done

let blk_seq env ~base ~extent_blocks ~passes =
  let s, p =
    build env
      (fun s -> s.Scenario.bhv)
      (fun () -> Scenario.storage ~flavor:Scenario.Kite ())
  in
  let engine = Process.engine s.Scenario.bsched in
  let expect = Bytes.create block in
  let lat = Lat.create () and lat_w = Lat.create () in
  let lat_r = Lat.create () in
  let host_w = ref 0. and host_r = ref 0. in
  let bad = ref 0 in
  let timed dir f =
    let t = Engine.now engine in
    let v = f () in
    Lat.add lat (Engine.now engine - t);
    Lat.add dir (Engine.now engine - t);
    v
  in
  Scenario.when_blk_ready s (fun () ->
      on_connected env p;
      let front = s.Scenario.blkfront in
      for pass = 1 to passes do
        let h = Speed.work () in
        for blk = 0 to extent_blocks - 1 do
          let data = Bytes.create block in
          fill_block ~base ~pass ~blk data;
          timed lat_w (fun () ->
              Kite_drivers.Blkfront.write front
                ~sector:(blk * sectors_per_block) data)
        done;
        let h' = Speed.work () in
        host_w := !host_w +. (h' -. h);
        for blk = 0 to extent_blocks - 1 do
          let got =
            timed lat_r (fun () ->
                Kite_drivers.Blkfront.read front
                  ~sector:(blk * sectors_per_block) ~count:sectors_per_block)
          in
          fill_block ~base ~pass ~blk expect;
          if not (Bytes.equal got expect) then incr bad
        done;
        host_r := !host_r +. (Speed.work () -. h')
      done;
      on_finished p);
  finish p;
  let attempted = lat.Lat.n in
  let ops = attempted - !bad in
  let elapsed =
    common env p ~dd:s.Scenario.bdd ~domu:s.Scenario.bdomu ~ops
  in
  put env "sim_ops_per_s" (float_of_int ops /. elapsed);
  put env "sim_mbytes_per_s" (float_of_int (ops * block) /. elapsed /. 1e6);
  put_latency env lat;
  (* 512 ops per direction leave five beyond the p99. *)
  let p99 l = Lat.pct_us ~min_beyond:5. (Lat.sorted l) 0.99 in
  put_host env "blk.write.host_s" !host_w;
  put_host env "blk.read.host_s" !host_r;
  put env "blk.write.sim_lat_p99_us" (p99 lat_w);
  put env "blk.read.sim_lat_p99_us" (p99 lat_r);
  let module Nvme = Kite_devices.Nvme in
  let nvme = s.Scenario.nvme in
  let nv_ops = Nvme.reads nvme + Nvme.writes nvme in
  let nv_bytes = Nvme.bytes_read nvme + Nvme.bytes_written nvme in
  mix env nv_ops;
  mix env nv_bytes;
  put env "devices.nvme_ops_per_op" (per_op nv_ops ops);
  put env "devices.nvme_bytes_per_op" (per_op nv_bytes ops);
  teardown env;
  { attempted; failed = !bad; ops; depth = p.depth }

(* ------------------------------------------------------------------ *)
(* swarm-kv: open-loop web-profile sessions against the guest kvstore  *)
(* ------------------------------------------------------------------ *)

let swarm_kv env ~clients =
  let module Swarm = Kite_swarm.Swarm in
  let s, p =
    build env
      (fun s -> s.Scenario.hv)
      (fun () -> Scenario.network ~flavor:Scenario.Kite ())
  in
  let engine = Process.engine s.Scenario.sched in
  let lat = Lat.create () in
  let bytes = ref 0 and res = ref None in
  Scenario.when_net_ready s (fun () ->
      on_connected env p;
      ignore
        (Kite_apps.Kvstore.start s.Scenario.guest_tcp ~sched:s.Scenario.sched
           ());
      (* The benchmark seed is the swarm's seed: it draws the arrival
         instants, session lengths and request sizes, and names the
         keys. *)
      let seq = ref 0 in
      let session () =
        incr seq;
        let sess =
          Kite_apps.Clients.kvstore s.Scenario.client_tcp
            ~dst:s.Scenario.guest_ip
            ~key:(Printf.sprintf "k%05d-%04d" (env.seed mod 100_000)
                    (!seq mod 4096))
            ()
        in
        (* Latency is timed from the instant each request is sent;
           drip-feed requests would time the drip schedule, not the
           server. *)
        {
          Swarm.c_request =
            (fun ~size ~slow ->
              let t = Engine.now engine in
              let ok = sess.Kite_apps.Clients.request ~size ~slow in
              if ok then begin
                bytes := !bytes + size;
                if not slow then Lat.add lat (Engine.now engine - t)
              end;
              ok);
          c_close = sess.Kite_apps.Clients.close;
        }
      in
      Swarm.run ~sched:s.Scenario.sched ~seed:env.seed
        ~profile:(Option.get (Kite_swarm.Profile.find "web"))
        ~clients
        ~driver:
          {
            Swarm.d_app = "kvstore";
            d_connect = (fun () -> try Some (session ()) with _ -> None);
          }
        ~on_done:(fun r ->
          res := Some r;
          on_finished p)
        ());
  finish p;
  let r = Option.get !res in
  let ops = r.Swarm.sw_completed in
  ignore (common env p ~dd:s.Scenario.dd ~domu:s.Scenario.domu ~ops);
  put env "sim_ops_per_s" r.Swarm.sw_goodput_rps;
  put env "sim_mbytes_per_s"
    (float_of_int !bytes /. Time.to_sec_f r.Swarm.sw_elapsed /. 1e6);
  put_latency env lat;
  mix env !bytes;
  mix env r.Swarm.sw_offered;
  put env "swarm.offered" (float_of_int r.Swarm.sw_offered);
  put env "swarm.completed" (float_of_int ops);
  put env "swarm.errors" (float_of_int r.Swarm.sw_errors);
  nic_metrics env ~ops [ s.Scenario.server_nic; s.Scenario.client_nic ];
  teardown env;
  let unaccounted = r.Swarm.sw_offered - ops - r.Swarm.sw_errors in
  {
    attempted = r.Swarm.sw_offered;
    failed = r.Swarm.sw_errors + abs unaccounted;
    ops;
    depth = p.depth;
  }

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* Sinks are armed from outside the program before the testbed is built,
   as the kite_ctl trace/top/path/incident commands arm them: all five
   on net-rx-udp-obs, trace and path on the traced pass. *)
let arm ~obs ~traced =
  let report = Kite_check.Report.create () in
  if obs then
    Kite_check.Check.set_default
      (Some (Kite_check.Check.default_config, report));
  let tsink = Kite_trace.Trace.sink () and psink = Kite_path.Path.sink () in
  if obs || traced then begin
    Kite_trace.Trace.set_default (Some tsink);
    Kite_path.Path.set_default (Some psink)
  end;
  if obs then begin
    Kite_metrics.Registry.set_default (Some (Kite_metrics.Registry.sink ()));
    Kite_flight.Flight.set_default (Some (Kite_flight.Flight.sink ()))
  end;
  (report, tsink, psink)

let path_kinds =
  [
    ("net_tx", "net.tx", [ "frontend"; "queue"; "ring"; "backend"; "deliver" ]);
    ( "blk",
      "blk",
      [ "frontend"; "queue"; "ring"; "backend"; "map"; "device"; "complete" ]
    );
  ]

(* The traced pass's attribution: stage waterfalls, the driver domain's
   CPU profile and the event-queue depth. *)
let traced_metrics env paths depth =
  let module Path = Kite_path.Path in
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let stats = List.concat_map Path.stage_stats paths in
  List.iter
    (fun (label, kind, stages) ->
      let total = sum (fun p -> Path.span_total_ns p ~kind) paths in
      let share v =
        if total = 0 then 0. else float_of_int v /. float_of_int total
      in
      List.iter
        (fun stage ->
          let st =
            List.filter
              (fun x -> x.Path.st_kind = kind && x.Path.st_stage = stage)
              stats
          in
          let p99 =
            List.fold_left (fun acc x -> Float.max acc x.Path.st_p99) 0. st
          in
          put env (Printf.sprintf "path.%s.%s.p99_us" label stage) (p99 /. 1e3);
          put env
            (Printf.sprintf "path.%s.%s.share" label stage)
            (share (sum (fun x -> x.Path.st_total_ns) st)))
        stages;
      List.iter
        (fun cls ->
          put env
            (Printf.sprintf "path.%s.%s_share" label (Path.class_name cls))
            (share (sum (fun p -> Path.class_total_ns p ~kind cls) paths)))
        [ Path.Queueing; Path.Service; Path.Notify ])
    path_kinds;
  let dd = List.assoc "driver_domain" env.notes in
  let prof =
    List.filter (fun (d, _, _) -> d = dd) (List.concat_map Path.profile paths)
  in
  let busy = sum (fun (_, _, b) -> b) prof in
  List.iteri
    (fun i k ->
      let proc, b =
        match List.nth_opt prof i with
        | Some (_, proc, b) -> (proc, b)
        | None -> ("-", 0)
      in
      note env (Printf.sprintf "drivers.cpu.%s" k) proc;
      put env (Printf.sprintf "drivers.cpu.%s.share" k) (per_op b busy))
    [ "top1"; "top2"; "top3" ];
  let s = Lat.sorted (Option.get depth) in
  let n = Array.length s in
  put env "sim.pending_p50" (float_of_int s.(n / 2));
  put env "sim.pending_max" (float_of_int s.(n - 1))

(* One workload run.  Its inputs are made from [seed] before anything is
   timed. *)
let run ~scale ~seed ~traced name =
  let full = scale = Full in
  let workload =
    match name with
    | "net-rx-udp" | "net-rx-udp-obs" ->
        let template = seeded_bytes seed payload in
        let ms =
          match (name, full) with
          | "net-rx-udp", true -> 200
          | _, true -> 100
          | _, false -> 10
        in
        fun env -> net_rx env ~template ~duration:(Time.ms ms)
    | "blk-seq" ->
        let base = seeded_bytes seed block in
        fun env ->
          blk_seq env ~base
            ~extent_blocks:(if full then 32 else 8)
            ~passes:(if full then 16 else 1)
    | "swarm-kv" ->
        fun env -> swarm_kv env ~clients:(if full then 2000 else 60)
    | other -> invalid_arg ("perfbench: unknown workload " ^ other)
  in
  let env =
    {
      seed;
      traced;
      out = [];
      host = [];
      notes = [];
      digest = 0x4bf29ce484222325;
    }
  in
  let report, tsink, psink =
    arm ~obs:(name = "net-rx-udp-obs") ~traced
  in
  let o = workload env in
  let traces = Kite_trace.Trace.traces tsink in
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 traces in
  let errors = Kite_check.Report.errors report in
  put env "trace.events_per_op" (per_op (sum Kite_trace.Trace.events) o.ops);
  put env "trace.dropped" (float_of_int (sum Kite_trace.Trace.dropped));
  put env "trace.orphan_hops" (float_of_int (sum Kite_trace.Trace.orphan_hops));
  put env "check.errors" (float_of_int errors);
  if traced then traced_metrics env (Kite_path.Path.paths psink) o.depth;
  let slowdown =
    Speed.slowdown (if name = "blk-seq" then Speed.Memory else Speed.Compute)
  in
  List.iter (fun (k, v) -> put env k (v /. slowdown)) env.host;
  put env "slowdown" slowdown;
  put env "ops_per_host_s"
    (float_of_int o.ops /. (List.assoc "host_s" env.host /. slowdown));
  {
    attempted = o.attempted;
    failed = o.failed;
    ok = o.failed = 0 && o.attempted > 0 && errors = 0;
    digest = Printf.sprintf "%016x" (env.digest land max_int);
    metrics = List.rev env.out;
    notes = List.rev env.notes;
  }

(* [setup_s] on its own, in a fresh process: the workload's sinks armed,
   its testbed built and its frontend connected, scaled by the
   [Compute] kernel.  It takes about 1 ms, too short for a speed chunk
   inside, so three chunks run before it and three after. *)
let setup name =
  for _ = 1 to 3 do
    Speed.chunk ()
  done;
  let t0 = Speed.work () in
  ignore (arm ~obs:(name = "net-rx-udp-obs") ~traced:false);
  let ready = ref false in
  let hv =
    match name with
    | "blk-seq" ->
        let s = Scenario.storage ~flavor:Scenario.Kite () in
        Scenario.when_blk_ready s (fun () -> ready := true);
        s.Scenario.bhv
    | _ ->
        let s = Scenario.network ~flavor:Scenario.Kite () in
        Scenario.when_net_ready s (fun () -> ready := true);
        s.Scenario.hv
  in
  drive hv ~limit:(Time.sec 60) (fun () -> !ready);
  let spent = Speed.work () -. t0 in
  for _ = 1 to 3 do
    Speed.chunk ()
  done;
  spent /. Speed.slowdown Speed.Compute
