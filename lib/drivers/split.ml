open Kite_sim
open Kite_xen

(* ------------------------------------------------------------------ *)
(* One backend device: identity, trust-boundary ledger and the wakeup
   accounting every worker thread shares.                              *)
(* ------------------------------------------------------------------ *)

type dev = {
  ctx : Xen_ctx.t;
  domain : Domain.t;
  frontend : Domain.t;
  devid : int;
  name : string;
  drv : string;
  wake : string;
  ty : string;
  bpath : string;
  fpath : string;
  ov : Overheads.t;
  max_queues : int;
  guard : Quarantine.t;
  mutable mq : bool;
  mutable stop : bool;
  mutable last_activity : Time.t;
  mutable state_guard : Xenstore.watch_id option;
  mutable on_detach : unit -> unit;
  mutable on_crash : unit -> unit;
}

let hv d = d.ctx.Xen_ctx.hv
let fid d = d.frontend.Domain.id

let fnote d what =
  match d.ctx.Xen_ctx.fault with
  | Some f -> Kite_fault.Fault.note f ~what ~key:d.name
  | None -> ()

(* Handler-to-thread wakeup cost: cold after an idle period, warm while
   traffic flows (§3.2's motivation for fast handlers). *)
let charge_wake d =
  let now = Hypervisor.now (hv d) in
  let idle = now - d.last_activity in
  let tier, cost =
    if idle > d.ov.Overheads.warm_window then ("cold", d.ov.Overheads.wake_cold)
    else if idle > d.ov.Overheads.busy_window then
      ("warm", d.ov.Overheads.wake_warm)
    else ("busy", d.ov.Overheads.wake_busy)
  in
  (match d.ctx.Xen_ctx.trace with
  | Some tr ->
      Kite_trace.Trace.driver tr ~at:now ~domain:d.domain.Domain.name
        ~name:d.wake
        ~args:[ Str (d.ty, d.name); Str ("tier", tier); Int ("idle_ns", idle) ]
  | None -> ());
  Hypervisor.cpu_work (hv d) d.domain cost

let touch d = d.last_activity <- Hypervisor.now (hv d)

(* The monolithic-kernel backend's extra grant-table hypercalls per
   packet or request (see Overheads): recorded at zero duration,
   profile-only. *)
let kernel_grant_ops d n =
  match d.ctx.Xen_ctx.trace with
  | None -> ()
  | Some tr ->
      if n > 0 then begin
        let at = Hypervisor.now (hv d) in
        let op =
          Kite_trace.Trace.op tr ~domain:d.domain.Domain.name
            ~op:"hypercall.grant_op.kernel"
        in
        for _ = 1 to n do
          Kite_trace.Trace.charge tr ~at op ~cost:0
        done
      end

(* One per-queue worker thread: ["<drv>-<role>-F.D"], plus [.qN] in the
   multi-queue layout. *)
let spawn_worker d role qid work =
  let suffix = if d.mq then Printf.sprintf ".q%d" qid else "" in
  Hypervisor.spawn (hv d) d.domain ~daemon:true
    ~name:(Printf.sprintf "%s-%s-%d.%d%s" d.drv role (fid d) d.devid suffix)
    work

(* ------------------------------------------------------------------ *)
(* Quarantine ladder                                                   *)
(* ------------------------------------------------------------------ *)

let drop_guard d =
  Option.iter (Xenbus.unwatch d.ctx.Xen_ctx.xb) d.state_guard;
  d.state_guard <- None

(* Retire the device's threads and close its channels (the driver's
   [detach] hook); the xenbus state is left alone.  Idempotent; the
   teardown half of both [stop] and the Detach/Offline quarantine
   actions.  Process context. *)
let detach d =
  if not d.stop then begin
    d.stop <- true;
    drop_guard d;
    d.on_detach ()
  end

(* Drive our own directory to Closed so the toolstack and any honest
   tooling see the device is gone for good. *)
let close_dir d =
  Xenbus.switch_state d.ctx.Xen_ctx.xb d.domain ~path:d.bpath Xenbus.Closing;
  Xenbus.switch_state d.ctx.Xen_ctx.xb d.domain ~path:d.bpath Xenbus.Closed

let apply_quarantine d action =
  let name = Quarantine.action_name action in
  (match d.ctx.Xen_ctx.check with
  | Some c ->
      Kite_check.Check.guest_quarantined c ~domid:(fid d) ~device:d.name
        ~action:name ~faults:(Quarantine.faults d.guard)
  | None -> ());
  (match d.ctx.Xen_ctx.flight with
  | Some fl ->
      Kite_flight.Flight.mark fl ~what:"quarantine"
        ~msg:(Printf.sprintf "%s -> %s" d.name name)
  | None -> ());
  fnote d (d.drv ^ ".quarantine." ^ name);
  match action with
  | Quarantine.Throttle -> ()  (* workers consult the level per wakeup *)
  | Quarantine.Detach -> detach d
  | Quarantine.Offline ->
      detach d;
      close_dir d

(* One rejected attack primitive: checker finding, flight incident,
   then whatever escalation the fault count has earned.  Process
   context (Offline writes xenbus states). *)
let record_fault d ~attack ~detail =
  let slug = Guest_fault.slug attack in
  (match d.ctx.Xen_ctx.check with
  | Some c ->
      Kite_check.Check.guest_fault c ~domid:(fid d) ~device:d.name
        ~attack:slug ~detail
  | None -> ());
  (match d.ctx.Xen_ctx.flight with
  | Some fl ->
      Kite_flight.Flight.record fl ~layer:"adversary" ~kind:"guest-fault"
        ~key:d.name
        ~msg:(Printf.sprintf "%s: %s" slug detail);
      Kite_flight.Flight.trigger fl Kite_flight.Flight.Manual
        ~reason:(Printf.sprintf "guest fault on %s: %s" d.name slug)
  | None -> ());
  fnote d (d.drv ^ ".guest-fault." ^ slug);
  match Quarantine.note d.guard attack with
  | Some action -> apply_quarantine d action
  | None -> ()

let throttle_penalty d =
  if Quarantine.throttled d.guard && not d.stop then
    Process.sleep Quarantine.throttle_penalty

let wait d cond =
  Condition.wait cond;
  if not d.stop then begin
    charge_wake d;
    throttle_penalty d
  end

(* ------------------------------------------------------------------ *)
(* Handshake checks: every negotiation key, ring reference, port and
   state the frontend publishes is attacker-controlled.  A violation
   raises a typed Guest_fault, which refuses the whole handshake.     *)
(* ------------------------------------------------------------------ *)

let fail d attack detail =
  Guest_fault.fail ~domid:(fid d) ~device:d.name ~attack ~detail

(* The ring-page order cap both backends advertise. *)
let max_ring_page_order = 2

let retries = 4
let retry_backoff = Time.us 50

let advertise d =
  let xb = d.ctx.Xen_ctx.xb in
  Xenbus.write xb d.domain
    ~path:(d.bpath ^ "/" ^ Xenif.Mq.key_max_queues)
    (string_of_int d.max_queues);
  Xenbus.write xb d.domain
    ~path:(d.bpath ^ "/" ^ Xenif.Mq.key_max_ring_page_order)
    (string_of_int max_ring_page_order);
  Xenbus.switch_state xb d.domain ~path:d.bpath Xenbus.Init_wait;
  Xenbus.wait_for_state xb d.domain ~path:d.fpath Xenbus.Initialised

(* A frontend that published multi-queue-num-queues gets per-queue keys
   under queue-<n>/; a legacy frontend gets the flat keys.  Never trust
   the frontend past our own advertised cap. *)
let num_queues d =
  match
    Xenbus.read d.ctx.Xen_ctx.xb d.domain
      ~path:(d.fpath ^ "/" ^ Xenif.Mq.key_num_queues)
  with
  | None -> 1
  | Some s -> (
      d.mq <- true;
      match int_of_string_opt s with
      | Some n when n > 0 -> min n d.max_queues
      | Some n -> fail d Xenstore_abuse (Printf.sprintf "num-queues %d" n)
      | None ->
          fail d Xenstore_abuse (Printf.sprintf "malformed num-queues %S" s))

let want d qid k =
  let key = Xenif.key ~mq:d.mq qid k in
  match Xenbus.read d.ctx.Xen_ctx.xb d.domain ~path:(d.fpath ^ "/" ^ key) with
  | None -> fail d Xenstore_abuse ("missing key " ^ key)
  | Some s -> (
      match int_of_string_opt s with
      | Some v -> v
      | None ->
          fail d Xenstore_abuse (Printf.sprintf "malformed %s = %S" key s))

(* A ring reference is only as trustworthy as its owner: it must exist,
   have been shared by *this* frontend — not hijacked from a neighbour —
   and be the right kind of ring. *)
let own_ring d reg ~kind r =
  match Xenif.owner_of reg r with
  | None -> fail d Bad_ring_ref (Printf.sprintf "unknown %sring ref %d" kind r)
  | Some o when o <> fid d ->
      fail d Bad_ring_ref
        (Printf.sprintf "%sring ref %d shared by domain %d" kind r o)
  | Some _ -> ()

let map_ring d map ~what r =
  try map r
  with Not_found ->
    fail d Bad_ring_ref (Printf.sprintf "ref %d is not %s" r what)

(* Mapping all the ring pages is pooled into one batched map hypercall. *)
let map_rings d ~pages =
  Hypervisor.hypercall (hv d) d.domain Hypervisor.Grant_map
    ~extra:(pages * (Hypervisor.costs (hv d)).Costs.grant_map)

let bind d port =
  try Event_channel.bind d.ctx.Xen_ctx.ec port d.domain
  with Event_channel.Evtchn_error msg -> fail d Bad_port msg

(* Watch the frontend's state node and reject illegal frontend-driven
   transitions — report them, never follow them.  The callback runs in
   engine context, so escalation (which may write xenbus states) moves
   to a spawned process. *)
let connect d ~detach ~crash =
  d.on_detach <- detach;
  d.on_crash <- crash;
  d.state_guard <-
    Some
      (Xenbus.guard_peer_state d.ctx.Xen_ctx.xb d.domain ~path:d.fpath
         ~on_illegal:(fun ~from_ ~to_ ->
           let detail = Printf.sprintf "frontend state %s -> %s" from_ to_ in
           Hypervisor.spawn (hv d) d.domain ~daemon:true
             ~name:(Printf.sprintf "%s-guard-%d.%d" d.drv (fid d) d.devid)
             (fun () ->
               if not d.stop then
                 record_fault d ~attack:Guest_fault.Xenbus_jump ~detail)));
  Xenbus.switch_state d.ctx.Xen_ctx.xb d.domain ~path:d.bpath Xenbus.Connected

(* ------------------------------------------------------------------ *)
(* Telemetry shared by both backends: the misbehavior series.         *)
(* ------------------------------------------------------------------ *)

let guard_metrics r d l =
  let module R = Kite_metrics.Registry in
  R.counter_fn r "kite_guest_faults_total"
    ~help:"Frontend-supplied values rejected at the trust boundary" l
    (fun () -> Quarantine.faults d.guard);
  R.gauge_fn r "kite_guest_quarantine_level"
    ~help:"0 ok / 1 throttled / 2 detached / 3 offline" l
    (fun () -> float_of_int (Quarantine.level d.guard))

(* ------------------------------------------------------------------ *)
(* Discovery (§4.1 backend invocation): a watch on backend/<ty> wakes a
   dedicated thread that pairs new frontends, one handshake process per
   device.                                                             *)
(* ------------------------------------------------------------------ *)

type 'i t = {
  sctx : Xen_ctx.t;
  sdomain : Domain.t;
  sdrv : string;
  sty : string;
  sov : Overheads.t;
  smax_queues : int;
  base : string;
  make : dev -> 'i;
  dev_of : 'i -> dev;
  mutable insts : 'i list;
  mutable rejected : (int * int) list;
      (* (frontend domid, devid) refused at the handshake *)
  mutable known : (int * int) list;  (* (frontend domid, devid) seen *)
  mutable scanned : int;  (* store shape generation at the last scan *)
  new_frontend : (int * int) Mailbox.t;
  mutable stopping : bool;
  mutable watch_id : Xenstore.watch_id option;
}

let instances t = t.insts
let rejected t = t.rejected

let device t frontend devid =
  let ty = t.sty in
  {
    ctx = t.sctx;
    domain = t.sdomain;
    frontend;
    devid;
    name = Printf.sprintf "%s%d.%d" ty frontend.Domain.id devid;
    drv = t.sdrv;
    wake = t.sdrv ^ ".wake";
    ty;
    bpath = Xenbus.backend_path ~backend:t.sdomain ~frontend ~ty ~devid;
    fpath = Xenbus.frontend_path ~frontend ~ty ~devid;
    ov = t.sov;
    max_queues = t.smax_queues;
    guard = Quarantine.create ();
    mq = false;
    stop = false;
    last_activity = Time.zero;
    state_guard = None;
    on_detach = ignore;
    on_crash = ignore;
  }

(* A frontend whose handshake failed validation: report, refuse to
   serve (drive our directory straight to Closed) and remember it so
   the device is never retried.  Process context. *)
let reject_frontend t d ~attack ~detail =
  let slug = Guest_fault.slug attack in
  (match d.ctx.Xen_ctx.check with
  | Some c ->
      Kite_check.Check.guest_fault c ~domid:(fid d) ~device:d.name
        ~attack:slug ~detail;
      Kite_check.Check.guest_quarantined c ~domid:(fid d) ~device:d.name
        ~action:"offline" ~faults:1
  | None -> ());
  (match d.ctx.Xen_ctx.flight with
  | Some fl ->
      Kite_flight.Flight.record fl ~layer:"adversary" ~kind:"guest-fault"
        ~key:d.name
        ~msg:(Printf.sprintf "%s: %s (handshake rejected)" slug detail);
      Kite_flight.Flight.trigger fl Kite_flight.Flight.Manual
        ~reason:(Printf.sprintf "handshake rejected on %s: %s" d.name slug)
  | None -> ());
  close_dir d;
  t.rejected <- (fid d, d.devid) :: t.rejected

let watcher t () =
  let rec loop () =
    let front_domid, devid = Mailbox.recv t.new_frontend in
    if front_domid < 0 || t.stopping then ()
    else begin
      (match Hypervisor.find_domain t.sctx.Xen_ctx.hv front_domid with
      | Some frontend ->
          (* Each handshake gets its own process: a frontend that stalls
             mid-handshake (or turns hostile) must not wedge the watcher
             and starve every other guest's connect. *)
          Hypervisor.spawn t.sctx.Xen_ctx.hv t.sdomain ~daemon:true
            ~name:
              (Printf.sprintf "%s-handshake-%d.%d" t.sdrv front_domid devid)
            (fun () ->
              let d = device t frontend devid in
              match t.make d with
              | i ->
                  if t.stopping then detach (t.dev_of i)
                  else t.insts <- i :: t.insts
              | exception Guest_fault.Guest_fault { attack; detail; _ } ->
                  reject_frontend t d ~attack ~detail)
      | None -> ());
      loop ()
    end
  in
  loop ()

(* Pair every device under backend/<ty> not seen before.  A scan finds
   nothing new unless a store node was created or removed since the
   last one, so the watch skips it then: the value writes under known
   devices (features, ring refs, states) fire it too. *)
let scan t =
  let xs = Hypervisor.store t.sctx.Xen_ctx.hv in
  t.scanned <- Xenstore.shape_generation xs;
  List.iter
    (fun frontid ->
      match int_of_string_opt frontid with
      | None -> ()
      | Some fid ->
          List.iter
            (fun devid ->
              match int_of_string_opt devid with
              | None -> ()
              | Some did ->
                  if not (List.mem (fid, did) t.known) then begin
                    t.known <- (fid, did) :: t.known;
                    Mailbox.send t.new_frontend (fid, did)
                  end)
            (Xenstore.directory xs ~path:(t.base ^ "/" ^ frontid)))
    (Xenstore.directory xs ~path:t.base)

let serve ctx ~domain ~overheads ~drv ~ty ~max_queues ~make ~dev_of =
  let t =
    {
      sctx = ctx;
      sdomain = domain;
      sdrv = drv;
      sty = ty;
      sov = overheads;
      smax_queues = max_queues;
      base = Printf.sprintf "/local/domain/%d/backend/%s" domain.Domain.id ty;
      make;
      dev_of;
      insts = [];
      rejected = [];
      known = [];
      scanned = -1;
      new_frontend = Mailbox.create ~label:(drv ^ " new frontends") ();
      stopping = false;
      watch_id = None;
    }
  in
  Hypervisor.spawn ctx.Xen_ctx.hv domain ~daemon:true ~name:(drv ^ "-watcher")
    (watcher t);
  Hypervisor.spawn ctx.Xen_ctx.hv domain ~name:(drv ^ "-watch-setup")
    (fun () ->
      t.watch_id <-
        Some
          (Xenbus.watch ctx.Xen_ctx.xb domain ~path:t.base ~token:drv
             (fun ~path:_ ~token:_ ->
               let xs = Hypervisor.store ctx.Xen_ctx.hv in
               if Xenstore.shape_generation xs <> t.scanned then scan t)));
  t

(* Unregister the directory watch, retire the watcher, then [each]
   device. *)
let halt t each =
  t.stopping <- true;
  Option.iter (Xenbus.unwatch t.sctx.Xen_ctx.xb) t.watch_id;
  t.watch_id <- None;
  Mailbox.send t.new_frontend (-1, -1);
  List.iter (fun i -> each (t.dev_of i)) t.insts

let stop t = halt t detach

let crash t =
  halt t (fun d ->
      d.stop <- true;
      drop_guard d;
      d.on_crash ())

(* ------------------------------------------------------------------ *)
(* Frontend side                                                       *)
(* ------------------------------------------------------------------ *)

(* Every armed sink on one ring the frontend built. *)
let instrument ctx ring ~name =
  (match ctx.Xen_ctx.check with
  | Some c -> Ring.attach_check ring c ~name
  | None -> ());
  (match ctx.Xen_ctx.trace with
  | Some tr ->
      Ring.attach_trace ring tr ~name ~now:(fun () ->
          Hypervisor.now ctx.Xen_ctx.hv)
  | None -> ());
  (match ctx.Xen_ctx.fault with
  | Some f -> Ring.attach_fault ring f ~name
  | None -> ());
  match ctx.Xen_ctx.race with
  | Some r -> Ring.attach_race ring r ~name
  | None -> ()

let negotiate xb domain ~fpath ~bpath ~ask =
  let ask =
    match ask with
    | Some _ -> ask
    | None -> Xenbus.read_int xb domain ~path:(fpath ^ "/queues-wanted")
  in
  let cap =
    Xenbus.read_int xb domain ~path:(bpath ^ "/" ^ Xenif.Mq.key_max_queues)
  in
  match (ask, cap) with
  | Some n, Some m when m >= 1 && n >= 1 ->
      (* Rings stay one page, which every cap allows; the cap is still
         read, as a real frontend does, because the read is a charged
         xenbus operation. *)
      ignore
        (Xenbus.read_int xb domain
           ~path:(bpath ^ "/" ^ Xenif.Mq.key_max_ring_page_order));
      (min n m, true)
  | _ -> (1, false)

let write_mq_keys xb domain ~fpath ~nq =
  Xenbus.write xb domain
    ~path:(fpath ^ "/" ^ Xenif.Mq.key_num_queues)
    (string_of_int nq);
  Xenbus.write xb domain
    ~path:(fpath ^ "/" ^ Xenif.Mq.key_ring_page_order)
    "0"

let monitor ctx domain ~bpath ~token ~live ~gone =
  let store = Hypervisor.store ctx.Xen_ctx.hv in
  let state_path = bpath ^ "/state" in
  Xenbus.watch ctx.Xen_ctx.xb domain ~path:state_path ~token
    (fun ~path:_ ~token:_ ->
      if live () then
        match Xenstore.read store ~path:state_path with
        | None -> gone ()
        | Some s -> (
            match Xenbus.state_of_string s with
            | Some (Xenbus.Closing | Xenbus.Closed) | None -> gone ()
            | Some _ -> ()))
