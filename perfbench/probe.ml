(* Host probes: ns per call of one public function, measured with
   bechamel and shaped like the workloads (ring batch, grant-copy sizes,
   TCP segment size, event-queue depth).  A layer's host cost on a
   workload is roughly its probe time multiplied by the exact per-op
   count the workload run reports. *)

open Kite_sim

let measure_ns ?(quota = 0.25) f =
  let open Bechamel in
  let open Toolkit in
  let test = Test.make ~name:"probe" (Staged.stage f) in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second quota) () in
  let raw =
    Benchmark.all cfg Instance.[ monotonic_clock ]
      (Test.make_grouped ~name:"g" [ test ])
  in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      (Instance.monotonic_clock :> Measure.witness)
      raw
  in
  Hashtbl.fold
    (fun _ ols acc ->
      match Analyze.OLS.estimates ols with
      | Some [ e ] -> e
      | Some _ | None -> acc)
    results nan

(* The seed ring's hot path (indices, masking, and the one checker
   option match it already paid): the baseline of the disabled-hooks
   ratio.  [Bare_ring] and [bare_roundtrip] mirror bench/main.ml's line
   for line, and the ratio is taken at the gates' shape (order 5, batch
   32), so it measures what the --trace-overhead, --fault-overhead and
   --metrics-overhead gates measure.  Keep the two in sync: the
   benchmark lives in its own directory and does not link bench/. *)
module Bare_ring = struct
  type t = {
    mask : int;
    reqs : int option array;
    rsps : int option array;
    mutable req_prod : int;
    mutable req_prod_pvt : int;
    mutable req_cons : int;
    mutable rsp_prod : int;
    mutable rsp_prod_pvt : int;
    mutable rsp_cons : int;
    mutable check : unit option;
  }

  let create ~order =
    let size = 1 lsl order in
    {
      mask = size - 1;
      reqs = Array.make size None;
      rsps = Array.make size None;
      req_prod = 0;
      req_prod_pvt = 0;
      req_cons = 0;
      rsp_prod = 0;
      rsp_prod_pvt = 0;
      rsp_cons = 0;
      check = None;
    }

  let push_request t v =
    (match t.check with Some () -> () | None -> ());
    t.reqs.(t.req_prod_pvt land t.mask) <- Some v;
    t.req_prod_pvt <- t.req_prod_pvt + 1

  let publish_requests t =
    (match t.check with Some () -> () | None -> ());
    t.req_prod <- t.req_prod_pvt

  let take_request t =
    (match t.check with Some () -> () | None -> ());
    if t.req_cons = t.req_prod then None
    else begin
      let i = t.req_cons land t.mask in
      let r = t.reqs.(i) in
      t.reqs.(i) <- None;
      t.req_cons <- t.req_cons + 1;
      r
    end

  let push_response t v =
    (match t.check with Some () -> () | None -> ());
    t.rsps.(t.rsp_prod_pvt land t.mask) <- Some v;
    t.rsp_prod_pvt <- t.rsp_prod_pvt + 1

  let publish_responses t =
    (match t.check with Some () -> () | None -> ());
    t.rsp_prod <- t.rsp_prod_pvt
end

let batch = 32

let bare_roundtrip () =
  let r = Bare_ring.create ~order:5 in
  for i = 1 to 32 do
    Bare_ring.push_request r i
  done;
  Bare_ring.publish_requests r;
  let rec drain () =
    match Bare_ring.take_request r with
    | Some v ->
        Bare_ring.push_response r v;
        drain ()
    | None -> ()
  in
  drain ();
  Bare_ring.publish_responses r

let ring_roundtrip ~order () =
  let r : (int, int) Kite_xen.Ring.t = Kite_xen.Ring.create ~order in
  for i = 1 to batch do
    Kite_xen.Ring.push_request r i
  done;
  ignore (Kite_xen.Ring.push_requests_and_check_notify r);
  let rec drain () =
    match Kite_xen.Ring.take_request r with
    | Some v ->
        Kite_xen.Ring.push_response r v;
        drain ()
    | None -> ()
  in
  drain ();
  ignore (Kite_xen.Ring.push_responses_and_check_notify r)

(* An event pushed onto and popped off a queue already holding [depth]
   far-future events. *)
let engine_event ~depth =
  let e = Engine.create () in
  for i = 1 to depth do
    ignore (Engine.schedule_at e (max_int / 2 + i) ignore)
  done;
  fun () ->
    let at = Engine.now e + 1 in
    ignore (Engine.schedule_at e at ignore);
    Engine.run_until e at

(* [rounds] mailbox round trips between two processes: two switches
   each. *)
let rounds = 64

let proc_pingpong () =
  let sched = Process.scheduler (Engine.create ()) in
  let ping = Mailbox.create () and pong = Mailbox.create () in
  Process.spawn sched ~name:"ping" (fun () ->
      for i = 1 to rounds do
        Mailbox.send ping i;
        ignore (Mailbox.recv pong)
      done);
  Process.spawn sched ~name:"pong" (fun () ->
      for _ = 1 to rounds do
        Mailbox.send pong (Mailbox.recv ping)
      done);
  Engine.run (Process.engine sched)

(* [copies] grant copies of [len] bytes from a DomU page by a driver
   domain process, hypercall accounting live. *)
let copies = 32

let grant_copy ~len =
  let hv = Kite_xen.Hypervisor.create () in
  let front =
    Kite_xen.Hypervisor.create_domain hv ~name:"front"
      ~kind:Kite_xen.Domain.Dom_u ~vcpus:1 ~mem_mb:64
  in
  let back =
    Kite_xen.Hypervisor.create_domain hv ~name:"back"
      ~kind:Kite_xen.Domain.Driver_domain ~vcpus:1 ~mem_mb:64
  in
  let gt = Kite_xen.Grant_table.create hv in
  let gref =
    Kite_xen.Grant_table.grant_access gt ~granter:front ~grantee:back
      ~page:(Kite_xen.Page.alloc ()) ~writable:false
  in
  fun () ->
    Kite_xen.Hypervisor.spawn hv back ~name:"copy" (fun () ->
        for _ = 1 to copies do
          ignore
            (Kite_xen.Grant_table.copy_from_granted gt ~caller:back gref
               ~off:0 ~len)
        done);
    Kite_xen.Hypervisor.run hv

let writes = 64

let xenstore_write_watch () =
  let xs = Kite_xen.Xenstore.create () in
  ignore
    (Kite_xen.Xenstore.watch xs ~path:"/backend" ~token:"t"
       (fun ~path:_ ~token:_ -> ()));
  for i = 0 to writes - 1 do
    Kite_xen.Xenstore.write xs ~domid:0
      ~path:(Printf.sprintf "/backend/vif/%d" i)
      "x"
  done

let tcp_encode =
  let seg = Bytes.make 2048 'k' in
  let src = Kite_net.Ipv4addr.of_string "10.0.0.9" in
  let dst = Kite_net.Ipv4addr.of_string "10.0.0.2" in
  let h =
    {
      Kite_net.Tcp_wire.src_port = 40000;
      dst_port = 6379;
      seq = 42;
      ack_num = 41;
      flags = Kite_net.Tcp_wire.no_flags;
      window = 65536;
    }
  in
  fun () -> ignore (Kite_net.Tcp_wire.encode h ~src ~dst ~payload:seg)

let histogram_observe =
  let reg = Kite_metrics.Registry.create ~name:"probe" () in
  let h = Kite_metrics.Registry.histogram reg "probe_latency_ms" [] in
  let x = ref 0. in
  fun () ->
    x := !x +. 0.37;
    Kite_metrics.Registry.observe h !x

(* [spans] spans of one begin, three hops and one end: five calls each,
   on a fresh tracer so the recorded spans stay bounded. *)
let spans = 64

let span_hops () =
  let module T = Kite_trace.Trace in
  let tr = T.create ~limit:1024 () in
  let kind = "net.tx" and key = "vif1.0" in
  for id = 1 to spans do
    let at = id * 10 in
    T.span_begin tr ~at ~kind ~key ~id ~stage:"frontend";
    List.iteri
      (fun i stage ->
        T.span_hop tr ~at:(at + i + 1) ~kind ~key ~id ~stage ~args:[])
      [ "queue"; "ring"; "backend" ];
    T.span_end tr ~at:(at + 5) ~kind ~key ~id
  done

let median3 f =
  let a = [| f (); f (); f () |] in
  Array.sort compare a;
  a.(1)

let all ~quota ~depth =
  let measure_ns f = measure_ns ~quota f in
  let per n f = measure_ns f /. float_of_int n in
  (* The ring ratio's two sides are measured in interleaved pairs and
     the median pair ratio kept, so a load shift lands on both. *)
  let ratio =
    median3 (fun () ->
        measure_ns (ring_roundtrip ~order:5) /. measure_ns bare_roundtrip)
  in
  [
    ("sim.engine_event_ns", measure_ns (engine_event ~depth));
    ("sim.proc_switch_ns", per (2 * rounds) proc_pingpong);
    ("xen.ring_roundtrip_ns", measure_ns (ring_roundtrip ~order:8));
    ("xen.ring_disabled_hooks_ratio", ratio);
    ("xen.grant_copy_1500_ns", per copies (grant_copy ~len:1500));
    ("xen.grant_copy_4096_ns", per copies (grant_copy ~len:4096));
    ("xen.xenstore_write_watch_ns", per writes xenstore_write_watch);
    ("net.tcp_encode_ns", measure_ns tcp_encode);
    ("stats.histogram_observe_ns", measure_ns histogram_observe);
    ("trace.span_hop_ns", per (5 * spans) span_hops);
  ]
