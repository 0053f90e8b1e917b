open Kite_sim
open Kite_xen
open Kite_net

let rx_backlog_limit = 4096

(* One negotiated Tx/Rx ring pair with its own event channel, backlog
   and worker threads.  Legacy frontends get exactly one of these wired
   to the flat xenstore keys. *)
type queue = {
  qid : int;
  tx_ring : Netchannel.tx_ring;
  rx_ring : Netchannel.rx_ring;
  qport : Event_channel.port;
  backlog : Bytes.t Queue.t;  (* frames from the bridge awaiting Rx slots *)
  pusher_wake : Condition.t;
  soft_wake : Condition.t;
  mutable q_tx_packets : int;
  mutable q_rx_packets : int;
  mutable spurious : int;  (* consecutive wakeups that drained nothing *)
}

type instance = {
  dev : Split.dev;
  queues : queue array;
  mutable vif : Netdev.t option;
  mutable tx_packets : int;
  mutable rx_packets : int;
  mutable tx_bytes : int;
  mutable rx_bytes : int;
  mutable rx_dropped : int;
  mutable io_retries : int;
  mutable tx_failed : int;
  mutable m_txbatch : Kite_metrics.Registry.histogram option;
  (* tx ids currently being served, across every queue of the device:
     id -> qid.  Detects in-flight replay and cross-queue slot reuse. *)
  inflight : int Int_table.t;
}

type t = instance Split.t

let instances = Split.instances
let rejected = Split.rejected
let frontend_domid i = i.dev.frontend.Domain.id
let devid i = i.dev.devid
let quarantine i = i.dev.guard
let tx_packets i = i.tx_packets
let rx_packets i = i.rx_packets
let io_retries i = i.io_retries
let num_queues i = Array.length i.queues

let hv i = i.dev.ctx.Xen_ctx.hv
let trace i = i.dev.ctx.Xen_ctx.trace

(* Happens-before channel for the per-queue Rx backlog: the VIF transmit
   callback releases before pushing, the softirq worker acquires after
   popping, so frame contents written by the bridge are ordered before
   the grant-copy that reads them. *)
let backlog_chan i q =
  Printf.sprintf "netback:%s.q%d.backlog" i.dev.name q.qid

(* Post-crash, the ring is dead and the channel torn down; a late batch
   must not kick it. *)
let notify_frontend i q =
  if not i.dev.stop then
    try Event_channel.notify i.dev.ctx.Xen_ctx.ec q.qport ~from:i.dev.domain
    with Event_channel.Evtchn_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Trust boundary: every index, reference, length and state the
   frontend publishes is attacker-controlled.  Violations become typed
   Guest_faults feeding the per-device quarantine ladder.              *)
(* ------------------------------------------------------------------ *)

let storm_threshold = 64

(* Guest -> wire.  Drains Tx requests, grant-copies the whole batch out
   of guest pages in one hypercall, hands the frames to the VIF (hence
   the bridge).  One pusher per queue. *)
let pusher i q () =
  (* Everything in a Tx descriptor is frontend-supplied; check it all
     before the grant table or the wire sees any of it.  An accepted
     descriptor yields its grant entry, which the batched copy then
     reads without a second lookup. *)
  let validate req =
    let open Guest_fault in
    let fid = i.dev.frontend.Domain.id in
    let len = req.Netchannel.tx_len in
    let gref = req.Netchannel.tx_gref in
    if len < 0 || len > Page.size then
      Error (Bad_length, Printf.sprintf "tx len %d outside [0,%d]" len Page.size)
    else
      match Grant_table.find i.dev.ctx.Xen_ctx.gt gref with
      | None -> Error (Bad_gref, Printf.sprintf "tx gref %d unknown or revoked" gref)
      | Some e when Grant_table.granter e <> fid ->
          Error
            ( Foreign_gref,
              Printf.sprintf "tx gref %d granted by domain %d" gref
                (Grant_table.granter e) )
      | Some e -> (
          match Int_table.find_opt i.inflight req.Netchannel.tx_id with
          | Some qid when qid = q.qid ->
              Error
                ( Replay,
                  Printf.sprintf "tx id %d replayed while in flight"
                    req.Netchannel.tx_id )
          | Some qid ->
              Error
                ( Slot_reuse,
                  Printf.sprintf "tx id %d already live on queue %d"
                    req.Netchannel.tx_id qid )
          | None -> Ok e)
  in
  (* A hostile frontend may never consume responses; a full response
     ring is its loss, not a reason to kill the worker. *)
  let respond req status =
    try
      Ring.push_response q.tx_ring
        { Netchannel.tx_rsp_id = req.Netchannel.tx_id; tx_status = status }
    with Ring.Ring_full -> ()
  in
  let drain () =
    if not (Ring.request_producer_valid q.tx_ring) then begin
      Split.record_fault i.dev ~attack:Guest_fault.Ring_index
        ~detail:
          (Printf.sprintf "tx producer window %d outside [0,%d]"
             (Ring.pending_requests q.tx_ring)
             (Ring.size q.tx_ring));
      0
    end
    else begin
    let rec take acc =
      match Ring.take_request q.tx_ring with
      | Some req ->
          (match trace i with
          | Some tr ->
              Kite_trace.Trace.span_hop tr
                ~at:(Hypervisor.now (hv i))
                ~kind:"net.tx" ~key:i.dev.name ~id:req.Netchannel.tx_id
                ~stage:"backend" ~args:[]
          | None -> ());
          take (req :: acc)
      | None -> List.rev acc
    in
    match take [] with
    | [] -> 0
    | reqs ->
        (* Validate sequentially, claiming each accepted id as we go:
           a duplicate later in the same drained run is just as much a
           replay as one racing a copy already in progress. *)
        let rev_ok, rev_bad =
          List.fold_left
            (fun (ok, bad) req ->
              match validate req with
              | Ok e ->
                  Int_table.replace i.inflight req.Netchannel.tx_id q.qid;
                  ((req, e) :: ok, bad)
              | Error fault -> (ok, (req, fault) :: bad))
            ([], []) reqs
        in
        let ok = List.rev rev_ok in
        List.iter
          (fun (req, (attack, detail)) ->
            respond req Netchannel.status_error;
            Split.record_fault i.dev ~attack ~detail)
          (List.rev rev_bad);
        if ok = [] || i.dev.stop then List.length reqs
        else begin
        (* Batched grant copy: the whole drained run rides a single
           hypercall trap. *)
        let frames =
          Grant_table.copy_from_granted_many i.dev.ctx.Xen_ctx.gt
            ~caller:i.dev.domain
            (List.map (fun (req, e) -> (e, 0, req.Netchannel.tx_len)) ok)
        in
        List.iter2
          (fun (req, _) frame ->
            Split.kernel_grant_ops i.dev
              i.dev.ov.Overheads.tx_kernel_grant_ops;
            Hypervisor.cpu_work (hv i) i.dev.domain
              i.dev.ov.Overheads.tx_per_packet;
            i.tx_packets <- i.tx_packets + 1;
            i.tx_bytes <- i.tx_bytes + req.Netchannel.tx_len;
            q.q_tx_packets <- q.q_tx_packets + 1;
            (* Dequeue-to-wire split: [backend] covered validation and
               the batched grant copy; [deliver] is the NIC leg, where
               retry/backoff time lands. *)
            (match trace i with
            | Some tr ->
                Kite_trace.Trace.span_hop tr
                  ~at:(Hypervisor.now (hv i))
                  ~kind:"net.tx" ~key:i.dev.name ~id:req.Netchannel.tx_id
                  ~stage:"deliver" ~args:[]
            | None -> ());
            (* The frame may reach the physical NIC synchronously (through
               the bridge); a transient NIC error is retried with
               exponential backoff, then the frame is dropped as a wire
               loss. *)
            (match i.vif with
            | Some v ->
                let rec deliver n =
                  try Netdev.deliver v frame with
                  | Kite_devices.Nic.Transient_error _
                    when n < Split.retries && not i.dev.stop ->
                      i.io_retries <- i.io_retries + 1;
                      Split.fnote i.dev
                        (Printf.sprintf "netback.tx-retry n=%d" (n + 1));
                      Process.sleep (Split.retry_backoff * (1 lsl n));
                      deliver (n + 1)
                  | Kite_devices.Nic.Transient_error _ ->
                      i.tx_failed <- i.tx_failed + 1;
                      Split.fnote i.dev "netback.tx-failed"
                in
                deliver 0
            | None -> ());
            (* Bridge egress: the packet's lifecycle ends here. *)
            (match trace i with
            | Some tr ->
                Kite_trace.Trace.span_end tr
                  ~at:(Hypervisor.now (hv i))
                  ~kind:"net.tx" ~key:i.dev.name ~id:req.Netchannel.tx_id
            | None -> ());
            Int_table.remove i.inflight req.Netchannel.tx_id;
            respond req Netchannel.status_ok)
          ok frames;
        List.length reqs
        end
    end
  in
  let rec loop () =
    if i.dev.stop then ()
    else begin
      let n = drain () in
      if n > 0 then begin
        q.spurious <- 0;
        (match trace i with
        | Some tr ->
            Kite_trace.Trace.driver tr
              ~at:(Hypervisor.now (hv i))
              ~domain:i.dev.domain.Domain.name ~name:"netback.tx-batch"
              ~args:[ Str ("vif", i.dev.name); Int ("n", n) ]
        | None -> ());
        (match i.m_txbatch with
        | Some h -> Kite_metrics.Registry.observe h (float_of_int n)
        | None -> ());
        if Ring.push_responses_and_check_notify q.tx_ring then
          notify_frontend i q;
        Split.touch i.dev
      end
      else if not i.dev.stop then begin
        (* A wakeup that drained nothing: normal in ones and twos
           (both workers are signalled per notify), an attack in
           volume.  The counter resets on any real work. *)
        q.spurious <- q.spurious + 1;
        if q.spurious >= storm_threshold then begin
          q.spurious <- 0;
          Split.record_fault i.dev ~attack:Guest_fault.Evtchn_storm
            ~detail:
              (Printf.sprintf "%d consecutive wakeups with no ring work"
                 storm_threshold)
        end
      end;
      if (not i.dev.stop) && not (Ring.final_check_for_requests q.tx_ring)
      then Split.wait i.dev q.pusher_wake;
      loop ()
    end
  in
  loop ()

(* Wire -> guest.  Matches backlogged frames with posted Rx buffers,
   grant-copies the batch into the guest in one hypercall, responds.
   One soft_start per queue, fed by the flow-hash steering in the VIF's
   transmit callback. *)
let soft_start i q () =
  (* An Rx buffer must be a live grant from *this* frontend that we are
     allowed to write into; anything else is an attack on some other
     domain's memory.  An accepted buffer yields its grant entry, which
     the batched copy writes through without a second lookup. *)
  let validate req =
    let open Guest_fault in
    let fid = i.dev.frontend.Domain.id in
    let gref = req.Netchannel.rx_gref in
    match Grant_table.find i.dev.ctx.Xen_ctx.gt gref with
    | None -> Error (Bad_gref, Printf.sprintf "rx gref %d unknown or revoked" gref)
    | Some e when Grant_table.granter e <> fid ->
        Error
          ( Foreign_gref,
            Printf.sprintf "rx gref %d granted by domain %d" gref
              (Grant_table.granter e) )
    | Some e when not (Grant_table.writable e) ->
        Error (Bad_gref, Printf.sprintf "rx gref %d granted read-only" gref)
    | Some e -> Ok e
  in
  let respond req ~len status =
    try
      Ring.push_response q.rx_ring
        {
          Netchannel.rx_rsp_id = req.Netchannel.rx_id;
          rx_len = len;
          rx_status = status;
        }
    with Ring.Ring_full -> ()
  in
  let drain () =
    if not (Ring.request_producer_valid q.rx_ring) then begin
      Split.record_fault i.dev ~attack:Guest_fault.Ring_index
        ~detail:
          (Printf.sprintf "rx producer window %d outside [0,%d]"
             (Ring.pending_requests q.rx_ring)
             (Ring.size q.rx_ring));
      0
    end
    else begin
    let rec gather acc =
      if Queue.is_empty q.backlog || Ring.pending_requests q.rx_ring = 0 then
        List.rev acc
      else begin
        let frame = Queue.pop q.backlog in
        if Kite_race.Race.active () then
          Kite_race.Race.scoped_acquire ~chan:(backlog_chan i q);
        match Ring.take_request q.rx_ring with
        | Some req -> gather ((req, frame) :: acc)
        | None -> List.rev acc
      end
    in
    match gather [] with
    | [] -> 0
    | pairs ->
        let ok, bad =
          List.partition_map
            (fun (req, frame) ->
              match validate req with
              | Ok e -> Either.Left (req, e, frame)
              | Error fault -> Either.Right (req, fault))
            pairs
        in
        List.iter
          (fun (req, (attack, detail)) ->
            (* The frame the bad buffer would have carried is a wire
               loss charged to the guest that posted the buffer. *)
            i.rx_dropped <- i.rx_dropped + 1;
            respond req ~len:0 Netchannel.status_error;
            Split.record_fault i.dev ~attack ~detail)
          bad;
        if ok = [] || i.dev.stop then List.length pairs
        else begin
        Grant_table.copy_to_granted_many i.dev.ctx.Xen_ctx.gt
          ~caller:i.dev.domain
          (List.map (fun (_, e, frame) -> (e, 0, frame)) ok);
        List.iter
          (fun (req, _, frame) ->
            Split.kernel_grant_ops i.dev
              i.dev.ov.Overheads.rx_kernel_grant_ops;
            Hypervisor.cpu_work (hv i) i.dev.domain
              i.dev.ov.Overheads.rx_per_packet;
            i.rx_packets <- i.rx_packets + 1;
            i.rx_bytes <- i.rx_bytes + Bytes.length frame;
            q.q_rx_packets <- q.q_rx_packets + 1;
            respond req ~len:(Bytes.length frame) Netchannel.status_ok)
          ok;
        List.length pairs
        end
    end
  in
  let rec loop () =
    if i.dev.stop then ()
    else begin
      let n = drain () in
      if n > 0 then begin
        (match trace i with
        | Some tr ->
            Kite_trace.Trace.driver tr
              ~at:(Hypervisor.now (hv i))
              ~domain:i.dev.domain.Domain.name ~name:"netback.rx-batch"
              ~args:[ Str ("vif", i.dev.name); Int ("n", n) ]
        | None -> ());
        if Ring.push_responses_and_check_notify q.rx_ring then
          notify_frontend i q;
        Split.touch i.dev
      end;
      if i.dev.stop
         || Queue.is_empty q.backlog
         || Ring.pending_requests q.rx_ring = 0
      then begin
        (* Re-arm request notifications before sleeping. *)
        if i.dev.stop then ()
        else if not (Ring.final_check_for_requests q.rx_ring) then
          Split.wait i.dev q.soft_wake
        else if Queue.is_empty q.backlog then Split.wait i.dev q.soft_wake
      end;
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Telemetry: per-vif instruments and Tx-ring stall probes (aggregate
   and per queue).                                                     *)
(* ------------------------------------------------------------------ *)

let attach_metrics i =
  match i.dev.ctx.Xen_ctx.metrics with
  | None -> ()
  | Some r ->
      let module R = Kite_metrics.Registry in
      let vif = i.dev.name in
      let l = [ ("vif", vif); ("side", "backend") ] in
      R.counter_fn r "kite_net_tx_packets_total" ~help:"Guest-to-wire packets"
        l
        (fun () -> i.tx_packets);
      R.counter_fn r "kite_net_tx_bytes_total" ~help:"Guest-to-wire bytes" l
        (fun () -> i.tx_bytes);
      R.counter_fn r "kite_net_rx_packets_total" ~help:"Wire-to-guest packets"
        l
        (fun () -> i.rx_packets);
      R.counter_fn r "kite_net_rx_bytes_total" ~help:"Wire-to-guest bytes" l
        (fun () -> i.rx_bytes);
      R.counter_fn r "kite_net_rx_dropped_total"
        ~help:"Frames dropped with the Rx backlog full" l
        (fun () -> i.rx_dropped);
      R.counter_fn r "kite_net_io_retries_total"
        ~help:"Transient NIC errors retried" l
        (fun () -> i.io_retries);
      R.counter_fn r "kite_net_tx_failed_total"
        ~help:"Frames lost after the retry budget" l
        (fun () -> i.tx_failed);
      Split.guard_metrics r i.dev l;
      let sum f =
        Array.fold_left (fun acc q -> acc + f q) 0 i.queues |> float_of_int
      in
      List.iter
        (fun (ring_name, pending, free) ->
          let rl = ("ring", ring_name) :: l in
          R.gauge_fn r "kite_net_ring_pending"
            ~help:"Unconsumed ring requests" rl pending;
          R.gauge_fn r "kite_net_ring_free" ~help:"Free request slots" rl free)
        [
          ( "tx",
            (fun () -> sum (fun q -> Ring.pending_requests q.tx_ring)),
            fun () -> sum (fun q -> Ring.free_requests q.tx_ring) );
          ( "rx",
            (fun () -> sum (fun q -> Ring.pending_requests q.rx_ring)),
            fun () -> sum (fun q -> Ring.free_requests q.rx_ring) );
        ];
      R.gauge_fn r "kite_net_rx_backlog"
        ~help:"Frames queued from the bridge awaiting Rx slots"
        [ ("vif", vif) ]
        (fun () ->
          sum (fun q -> Queue.length q.backlog));
      i.m_txbatch <-
        Some
          (R.histogram r "kite_net_tx_batch" ~base:1.0 ~factor:2.0
             ~help:"Tx requests drained per wakeup" [ ("vif", vif) ]);
      R.probe r ~name:"kite_net_tx_ring_stalled" [ ("vif", vif) ]
        (R.stalled_probe
           ~pending:(fun () ->
             if i.dev.stop then 0
             else
               Array.fold_left
                 (fun acc q -> acc + Ring.pending_requests q.tx_ring)
                 0 i.queues)
           ~progress:(fun () -> i.tx_packets)
           ());
      if i.dev.mq then
        Array.iter
          (fun q ->
            let ql = [ ("vif", vif); ("queue", string_of_int q.qid) ] in
            R.counter_fn r "kite_net_queue_tx_packets_total"
              ~help:"Guest-to-wire packets on this queue" ql
              (fun () -> q.q_tx_packets);
            R.counter_fn r "kite_net_queue_rx_packets_total"
              ~help:"Wire-to-guest packets on this queue" ql
              (fun () -> q.q_rx_packets);
            R.probe r ~name:"kite_net_tx_ring_stalled" ql
              (R.stalled_probe
                 ~pending:(fun () ->
                   if i.dev.stop then 0 else Ring.pending_requests q.tx_ring)
                 ~progress:(fun () -> q.q_tx_packets)
                 ()))
          i.queues

let make_instance ~on_vif (dev : Split.dev) =
  let ctx = dev.ctx and domain = dev.domain in
  Xenbus.write ctx.Xen_ctx.xb domain ~path:(dev.bpath ^ "/feature-rx-copy") "1";
  Split.advertise dev;
  let nq = Split.num_queues dev in
  let reg = ctx.Xen_ctx.netrings in
  let queues =
    Array.init nq (fun qid ->
        let tx_ref = Split.want dev qid "tx-ring-ref" in
        let rx_ref = Split.want dev qid "rx-ring-ref" in
        let qport = Split.want dev qid "event-channel" in
        Split.own_ring dev reg ~kind:"tx " tx_ref;
        Split.own_ring dev reg ~kind:"rx " rx_ref;
        let tx_ring =
          Split.map_ring dev (Netchannel.map_tx reg) ~what:"a tx ring" tx_ref
        in
        let rx_ring =
          Split.map_ring dev (Netchannel.map_rx reg) ~what:"an rx ring" rx_ref
        in
        {
          qid;
          tx_ring;
          rx_ring;
          qport;
          backlog = Queue.create ();
          pusher_wake = Condition.create ~label:"netback tx ring" ();
          soft_wake = Condition.create ~label:"netback rx backlog" ();
          q_tx_packets = 0;
          q_rx_packets = 0;
          spurious = 0;
        })
  in
  Split.map_rings dev ~pages:(2 * nq);
  Array.iter (fun q -> Split.bind dev q.qport) queues;
  let i =
    {
      dev;
      queues;
      vif = None;
      tx_packets = 0;
      rx_packets = 0;
      tx_bytes = 0;
      rx_bytes = 0;
      rx_dropped = 0;
      io_retries = 0;
      tx_failed = 0;
      m_txbatch = None;
      inflight = Int_table.create 64;
    }
  in
  (* The VIF's transmit side (bridge -> guest) feeds the per-queue
     backlogs through the flow-hash steering function; it runs in
     arbitrary context so it only enqueues and signals. *)
  let vif =
    Netdev.create ~name:dev.name
      ~transmit:(fun frame ->
        let q = queues.(Netchannel.flow_hash frame nq) in
        if Queue.length q.backlog >= rx_backlog_limit then
          i.rx_dropped <- i.rx_dropped + 1
        else begin
          if Kite_race.Race.active () then
            Kite_race.Race.scoped_release ~chan:(backlog_chan i q);
          Queue.push frame q.backlog;
          Condition.signal q.soft_wake
        end)
      ()
  in
  i.vif <- Some vif;
  Array.iter
    (fun q ->
      Event_channel.set_handler ctx.Xen_ctx.ec q.qport domain (fun () ->
          Condition.signal q.pusher_wake;
          Condition.signal q.soft_wake))
    queues;
  Split.connect dev
    ~detach:(fun () ->
      Array.iter
        (fun q ->
          Condition.broadcast q.pusher_wake;
          Condition.broadcast q.soft_wake;
          Event_channel.close ctx.Xen_ctx.ec q.qport)
        queues)
    ~crash:(fun () ->
      Array.iter
        (fun q ->
          Queue.clear q.backlog;
          Condition.broadcast q.pusher_wake;
          Condition.broadcast q.soft_wake)
        queues);
  attach_metrics i;
  on_vif ~frontend:dev.frontend.Domain.id ~devid:dev.devid vif;
  Array.iter
    (fun q ->
      Split.spawn_worker dev "pusher" q.qid (pusher i q);
      Split.spawn_worker dev "soft_start" q.qid (soft_start i q))
    queues;
  i

let serve ctx ~domain ~overheads ?(max_queues = 8) ~on_vif () =
  Split.serve ctx ~domain ~overheads ~drv:"netback" ~ty:"vif" ~max_queues
    ~make:(make_instance ~on_vif)
    ~dev_of:(fun i -> i.dev)

let stop = Split.stop
let crash = Split.crash
