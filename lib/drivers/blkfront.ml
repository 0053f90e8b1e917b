open Kite_sim
open Kite_xen

let sector_size = 512
let sectors_per_page = Page.size / sector_size

(* How long the frontend waits for a response before suspecting the
   request (or its completion notification) was lost.  Well above any
   normal I/O latency in the model, so it only fires under injected
   faults or a backend crash. *)
let watchdog_timeout = Time.ms 500

exception Io_error of string

(* The in-flight journal entry.  It carries everything needed to re-push
   the request verbatim — the built ring descriptor (whose indirect body
   names the granted descriptor pages) plus the granted data pages — so
   the watchdog can re-issue a lost request and crash recovery can replay
   unacknowledged ones into a fresh ring.  The grants stay valid across a
   backend crash (the granter is this, living, domain; the hypervisor
   force-unmaps the dead peer's mappings). *)
type pending = {
  p_id : int;
  cond : Condition.t;
  mutable status : int option;  (* response status once completed *)
  p_req : Blkif.request;
  p_pages : (Grant_table.ref_ * Page.t) array;
}

(* One negotiated ring.  Legacy backends get exactly one, wired to the
   flat xenstore keys; multi-ring backends get [num_queues], each with
   its own ring and event channel.  Requests are steered by
   [p_id mod num_queues], so a crash replay re-steers deterministically
   against whatever count the re-handshake settles on. *)
type queue = {
  qid : int;
  q_ring : Blkif.ring;
  q_port : Event_channel.port;
}

type t = {
  ctx : Xen_ctx.t;
  domain : Domain.t;
  backend : Domain.t;
  devid : int;
  name : string;  (* "vbd<domid>.<devid>" *)
  want_persistent : bool;
  ask_queues : int option;  (* multi-ring ask; None = legacy frontend *)
  mutable queues : queue array;  (* rebuilt on every (re)connect *)
  mutable mq_mode : bool;
  mutable connected : bool;
  mutable shut : bool;  (* orderly shutdown: monitor must not reconnect *)
  mutable monitor : Xenstore.watch_id option;
  mutable capacity : int;
  mutable backend_persistent : bool;
  mutable backend_indirect : int;  (* max indirect segments; 0 = none *)
  conn_cond : Condition.t;
  slot_cond : Condition.t;
  pending : pending Int_table.t;
  (* Persistent pages, a stack: [pool.(pool_n - 1)] is taken next. *)
  mutable pool : (Grant_table.ref_ * Page.t) array;
  mutable pool_n : int;
  mutable next_id : int;
  mutable requests : int;
  mutable reconnects : int;
  mutable replayed : int;
  mutable resubmits : int;
  mutable m_lat : Kite_metrics.Registry.histogram option;
}

let capacity_sectors t = t.capacity
let requests_issued t = t.requests
let reconnects t = t.reconnects
let replayed t = t.replayed
let resubmits t = t.resubmits
let is_connected t = t.connected
let indirect_enabled t = t.backend_indirect > 0
let persistent_enabled t = t.want_persistent && t.backend_persistent
let num_queues t = Array.length t.queues

let fpath t = Xenbus.frontend_path ~frontend:t.domain ~ty:"vbd" ~devid:t.devid

let bpath t =
  Xenbus.backend_path ~backend:t.backend ~frontend:t.domain ~ty:"vbd"
    ~devid:t.devid

let fresh_id t =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  id

let fnote t what =
  match t.ctx.Xen_ctx.fault with
  | Some f -> Kite_fault.Fault.note f ~what ~key:t.name
  | None -> ()

let ring_name t q =
  if t.mq_mode then
    Printf.sprintf "%s/vbd%d.q%d" t.domain.Domain.name t.devid q.qid
  else Printf.sprintf "%s/vbd%d" t.domain.Domain.name t.devid

let attach_ring_instruments t q =
  Split.instrument t.ctx q.q_ring ~name:(ring_name t q)

(* The multi-queue checker invariant: a request id is a device-global
   slot that must never be in flight on two rings at once. *)
let mq_claim t q ~slot =
  if t.mq_mode then
    match t.ctx.Xen_ctx.check with
    | Some c -> Kite_check.Check.mq_claim c ~dev:t.name ~queue:q.qid ~slot
    | None -> ()

let mq_release t ~slot =
  if t.mq_mode then
    match t.ctx.Xen_ctx.check with
    | Some c -> Kite_check.Check.mq_release c ~dev:t.name ~slot
    | None -> ()

let queue_for t p = t.queues.(p.p_id mod Array.length t.queues)

(* Data pages: persistent mode reuses a granted pool so the backend's
   mappings stay valid; otherwise grant fresh pages per request and revoke
   them afterwards. *)
(* The pool hand-off needs a happens-before edge of its own: pages cycle
   between submitting processes (and the backend's writes into them), and
   in a real kernel the pool lock is what orders one request's final read
   against the next request's reuse.  put releases, get acquires. *)
let pool_chan t = Printf.sprintf "%s.pool" t.name

let grant_page t =
  let page = Page.alloc () in
  let gref =
    Grant_table.grant_access t.ctx.Xen_ctx.gt ~granter:t.domain
      ~grantee:t.backend ~page ~writable:true
  in
  (gref, page)

let get_page t =
  if persistent_enabled t && t.pool_n > 0 then begin
    if Kite_race.Race.active () then
      Kite_race.Race.scoped_acquire ~chan:(pool_chan t);
    t.pool_n <- t.pool_n - 1;
    t.pool.(t.pool_n)
  end
  else grant_page t

(* Back on the stack in reverse, so the next request takes them in the
   order this one had them. *)
let put_pages t pages =
  if persistent_enabled t then begin
    if Kite_race.Race.active () then
      Kite_race.Race.scoped_release ~chan:(pool_chan t);
    let n = Array.length pages in
    if t.pool_n + n > Array.length t.pool then begin
      let grown =
        Array.make (max (2 * Array.length t.pool) (t.pool_n + n)) pages.(0)
      in
      Array.blit t.pool 0 grown 0 t.pool_n;
      t.pool <- grown
    end;
    for k = n - 1 downto 0 do
      t.pool.(t.pool_n) <- pages.(k);
      t.pool_n <- t.pool_n + 1
    done
  end
  else
    Array.iter
      (fun (gref, _) ->
        Grant_table.end_access t.ctx.Xen_ctx.gt ~granter:t.domain gref)
      pages

(* Revoke every idle pooled grant, most recently pooled first. *)
let drain_pool t =
  for k = t.pool_n - 1 downto 0 do
    Grant_table.end_access t.ctx.Xen_ctx.gt ~granter:t.domain
      (fst t.pool.(k))
  done;
  t.pool <- [||];
  t.pool_n <- 0

(* The bytes page [pi] of a [count]-sector request carries: a whole page
   but for the last one. *)
let page_len ~count pi =
  min Page.size ((count * sector_size) - (pi * Page.size))

(* Build the journal entry for one blkif request covering [count] sectors
   starting at [sector]: take the data pages, then in one pass fill them
   for writes straight from the caller's [buf] at [off] and, when the
   segments are too many for the ring slot, pack their indirect
   descriptors. *)
let prepare t op ~sector ~count buf ~off =
  let id = fresh_id t in
  let npages = (count + sectors_per_page - 1) / sectors_per_page in
  let pages = Array.init npages (fun _ -> get_page t) in
  let last_sect pi =
    min (sectors_per_page - 1) (count - (pi * sectors_per_page) - 1)
  in
  let indirect = npages > Blkif.max_direct_segments in
  let descs = if indirect then Blkif.descriptor_buffers npages else [||] in
  Array.iteri
    (fun pi (gref, page) ->
      if op = Blkif.Write then
        Page.write_from page ~off:0 buf
          ~src_off:(off + (pi * Page.size))
          ~len:(page_len ~count pi);
      if indirect then
        Blkif.put_descriptor descs pi ~gref ~first_sect:0
          ~last_sect:(last_sect pi))
    pages;
  let body =
    if indirect then
      Blkif.Indirect
        ( List.map
            (fun b ->
              Grant_table.grant_access t.ctx.Xen_ctx.gt ~granter:t.domain
                ~grantee:t.backend ~page:(Page.of_bytes b) ~writable:false)
            (Array.to_list descs),
          npages )
    else
      Blkif.Direct
        (List.init npages (fun pi ->
             { Blkif.gref = fst pages.(pi); first_sect = 0;
               last_sect = last_sect pi }))
  in
  {
    p_id = id;
    cond = Condition.create ~label:"blkfront response" ();
    status = None;
    p_req = { Blkif.req_id = id; op; sector; body };
    p_pages = pages;
  }

let notify_backend t q =
  if t.connected then
    try Event_channel.notify t.ctx.Xen_ctx.ec q.q_port ~from:t.domain
    with Event_channel.Evtchn_error _ -> ()
      (* the backend died between our check and the send *)

(* Push a journal entry into its ring.  Also the replay path: pushing the
   same entry again is what re-issue means — same id, same grants, so a
   duplicated response completes nothing twice and a duplicated device
   write is idempotent.  The target queue is re-picked after every wait:
   a reconnect may have renegotiated the queue count. *)
let push_entry t p =
  (* Queue-entry hop: everything until the ring push is time spent
     waiting for a free slot (or for reconnection) — queueing.  The
     watchdog's re-issue path passes here again; the repeated stage is
     merged by name in the breakdown. *)
  (match t.ctx.Xen_ctx.trace with
  | Some tr ->
      Kite_trace.Trace.span_hop tr
        ~at:(Hypervisor.now t.ctx.Xen_ctx.hv)
        ~kind:"blk" ~key:t.name ~id:p.p_id ~stage:"queue" ~args:[]
  | None -> ());
  (* Wait for a ring slot; concurrent submitters can steal the slot we
     saw, in which case push raises Ring_full and we go back to sleep.
     A disconnected frontend parks here too: the reconnect path wakes
     [slot_cond] once the fresh rings are connected. *)
  let rec claim_slot () =
    while not t.connected do
      Condition.wait t.slot_cond
    done;
    let q = queue_for t p in
    if Ring.free_requests q.q_ring = 0 then begin
      Condition.wait t.slot_cond;
      claim_slot ()
    end
    else
      match Ring.push_request q.q_ring p.p_req with
      | () -> q
      | exception Ring.Ring_full -> claim_slot ()
  in
  let q = claim_slot () in
  mq_claim t q ~slot:p.p_id;
  (match t.ctx.Xen_ctx.trace with
  | Some tr ->
      let count =
        match p.p_req.Blkif.body with
        | Blkif.Direct segs -> List.length segs * sectors_per_page
        | Blkif.Indirect (_, n) -> n * sectors_per_page
      in
      Kite_trace.Trace.span_hop tr
        ~at:(Hypervisor.now t.ctx.Xen_ctx.hv)
        ~kind:"blk" ~key:t.name ~id:p.p_id ~stage:"ring"
        ~args:[ Int ("sectors", count) ]
  | None -> ());
  if Kite_race.Race.active () then
    Kite_race.Race.scoped_write
      ~loc:(Printf.sprintf "%s.pending[%d]" t.name p.p_id)
      ~site:"Blkfront.push";
  Int_table.replace t.pending p.p_id p;
  if Ring.push_requests_and_check_notify q.q_ring then notify_backend t q

(* Responses carry no payload copying that needs process context, so they
   are completed inline in the interrupt handler — one per queue. *)
let handle_event t q () =
  let rec drain () =
    match Ring.take_response q.q_ring with
    | Some rsp ->
        (match Int_table.find_opt t.pending rsp.Blkif.rsp_id with
        | Some p ->
            (match t.ctx.Xen_ctx.trace with
            | Some tr ->
                Kite_trace.Trace.span_end tr
                  ~at:(Hypervisor.now t.ctx.Xen_ctx.hv)
                  ~kind:"blk" ~key:t.name ~id:rsp.Blkif.rsp_id
            | None -> ());
            mq_release t ~slot:rsp.Blkif.rsp_id;
            p.status <- Some rsp.Blkif.status;
            Condition.broadcast p.cond
        | None -> ());
        Condition.broadcast t.slot_cond;
        drain ()
    | None -> if Ring.final_check_for_responses q.q_ring then drain ()
  in
  drain ()

(* Block until the response for [p] arrives.  The watchdog distinguishes
   two loss modes: a lost completion notification (responses are sitting
   in the ring — drain them ourselves and kick the backend) and a lost
   request (nothing will ever come back — re-issue the journal entry).
   While reconnecting it just keeps waiting; replay owns the entry. *)
let await_response t p =
  let misses = ref 0 in
  while p.status = None do
    match Condition.timed_wait p.cond watchdog_timeout with
    | `Signaled -> misses := 0
    | `Timeout ->
        if t.connected && p.status = None then begin
          incr misses;
          if !misses = 1 then begin
            fnote t "blkfront.watchdog.kick";
            let q = queue_for t p in
            handle_event t q ();
            if p.status = None then notify_backend t q
          end
          else begin
            fnote t "blkfront.watchdog.reissue";
            t.resubmits <- t.resubmits + 1;
            push_entry t p;
            misses := 0
          end
        end
  done

(* One ring request over [count] sectors of the caller's [buf] at [off]:
   the write's source, the read's destination. *)
let submit t op ~sector ~count buf ~off =
  let p = prepare t op ~sector ~count buf ~off in
  (match t.ctx.Xen_ctx.trace with
  | Some tr ->
      Kite_trace.Trace.span_begin tr
        ~at:(Hypervisor.now t.ctx.Xen_ctx.hv)
        ~kind:"blk" ~key:t.name ~id:p.p_id ~stage:"frontend"
  | None -> ());
  let t0 = Hypervisor.now t.ctx.Xen_ctx.hv in
  push_entry t p;
  t.requests <- t.requests + 1;
  await_response t p;
  (match t.m_lat with
  | Some h ->
      Kite_metrics.Registry.observe h
        (float_of_int (Hypervisor.now t.ctx.Xen_ctx.hv - t0))
  | None -> ());
  if Kite_race.Race.active () then
    Kite_race.Race.scoped_write
      ~loc:(Printf.sprintf "%s.pending[%d]" t.name p.p_id)
      ~site:"Blkfront.complete";
  Int_table.remove t.pending p.p_id;
  (* Indirect descriptor pages are single-use. *)
  (match p.p_req.Blkif.body with
  | Blkif.Indirect (grefs, _) ->
      List.iter
        (fun gref ->
          Grant_table.end_access t.ctx.Xen_ctx.gt ~granter:t.domain gref)
        grefs
  | Blkif.Direct _ -> ());
  if p.status <> Some Blkif.status_ok then begin
    put_pages t p.p_pages;
    raise
      (Io_error
         (Printf.sprintf "blkfront %s: request %d failed" t.domain.Domain.name
            p.p_id))
  end;
  (* Drain each page straight into its place in the result. *)
  if op = Blkif.Read then
    Array.iteri
      (fun pi (_, page) ->
        Page.read_into page ~off:0 ~len:(page_len ~count pi) buf
          ~dst_off:(off + (pi * Page.size)))
      p.p_pages;
  put_pages t p.p_pages

let max_sectors_per_request t =
  let max_segs =
    if indirect_enabled t then min t.backend_indirect Blkif.max_indirect_segments
    else Blkif.max_direct_segments
  in
  max_segs * sectors_per_page

(* Split a large operation into ring requests running in parallel, each
   over its own range of [buf]. *)
let run_chunks t op ~sector ~count buf =
  let chunk = max_sectors_per_request t in
  let nchunks = (count + chunk - 1) / chunk in
  if nchunks = 1 then submit t op ~sector ~count buf ~off:0
  else begin
    let remaining = ref nchunks in
    let failure = ref None in
    let done_cond = Condition.create () in
    for ci = 0 to nchunks - 1 do
      let first = ci * chunk in
      let n = min chunk (count - first) in
      Hypervisor.spawn t.ctx.Xen_ctx.hv t.domain
        ~name:("blkfront-io-" ^ string_of_int ci)
        (fun () ->
          (try
             submit t op ~sector:(sector + first) ~count:n buf
               ~off:(first * sector_size)
           with e -> failure := Some e);
          decr remaining;
          if !remaining = 0 then Condition.broadcast done_cond)
    done;
    while !remaining > 0 do
      Condition.wait done_cond
    done;
    match !failure with Some e -> raise e | None -> ()
  end

let read t ~sector ~count =
  if count <= 0 then invalid_arg "Blkfront.read: count";
  let out = Bytes.create (count * sector_size) in
  run_chunks t Blkif.Read ~sector ~count out;
  out

let write t ~sector data =
  let len = Bytes.length data in
  if len = 0 || len mod sector_size <> 0 then
    invalid_arg "Blkfront.write: length not sector-aligned";
  run_chunks t Blkif.Write ~sector ~count:(len / sector_size) data

let flush t = submit t Blkif.Flush ~sector:0 ~count:0 Bytes.empty ~off:0

(* Per-queue ring telemetry, (re)registered at each connect: the family
   keeps its full label set stable and re-registration with the same
   labels just swaps the sampling closure in place. *)
let attach_queue_metrics t =
  match t.ctx.Xen_ctx.metrics with
  | None -> ()
  | Some r ->
      if t.mq_mode then begin
        let module R = Kite_metrics.Registry in
        let vbd = t.name in
        Array.iter
          (fun q ->
            let ql =
              [
                ("vbd", vbd); ("side", "frontend");
                ("queue", string_of_int q.qid);
              ]
            in
            R.gauge_fn r "kite_blk_ring_pending"
              ~help:"Unconsumed ring requests" ql (fun () ->
                float_of_int (Ring.pending_requests q.q_ring));
            R.gauge_fn r "kite_blk_ring_free" ~help:"Free request slots" ql
              (fun () -> float_of_int (Ring.free_requests q.q_ring)))
          t.queues
      end

let rec connect t () =
  let xb = t.ctx.Xen_ctx.xb in
  Xenbus.wait_for_state xb t.domain ~path:(bpath t) Xenbus.Init_wait;
  t.capacity <-
    Option.value ~default:0 (Xenbus.read_int xb t.domain ~path:(bpath t ^ "/sectors"));
  t.backend_persistent <-
    Xenbus.read xb t.domain ~path:(bpath t ^ "/feature-persistent") = Some "1";
  t.backend_indirect <-
    Option.value ~default:0
      (Xenbus.read_int xb t.domain
         ~path:(bpath t ^ "/feature-max-indirect-segments"));
  let nq, mq_mode =
    Split.negotiate xb t.domain ~fpath:(fpath t) ~bpath:(bpath t)
      ~ask:t.ask_queues
  in
  t.mq_mode <- mq_mode;
  t.queues <-
    Array.init nq (fun qid ->
        {
          qid;
          q_ring = Ring.create ~order:Blkif.ring_order;
          q_port =
            Event_channel.alloc_unbound t.ctx.Xen_ctx.ec t.domain
              ~remote:t.backend;
        });
  Array.iter (fun q -> attach_ring_instruments t q) t.queues;
  if mq_mode then
    Split.write_mq_keys xb t.domain ~fpath:(fpath t) ~nq;
  Array.iter
    (fun q ->
      let key = Xenif.key ~mq:mq_mode q.qid in
      let ring_ref =
        Blkif.share t.ctx.Xen_ctx.blkrings ~owner:t.domain.Domain.id q.q_ring
      in
      Xenbus.write xb t.domain
        ~path:(fpath t ^ "/" ^ key "ring-ref")
        (string_of_int ring_ref);
      Xenbus.write xb t.domain
        ~path:(fpath t ^ "/" ^ key "event-channel")
        (string_of_int q.q_port))
    t.queues;
  Xenbus.write xb t.domain
    ~path:(fpath t ^ "/feature-persistent")
    (if t.want_persistent then "1" else "0");
  Xenbus.switch_state xb t.domain ~path:(fpath t) Xenbus.Initialised;
  Xenbus.wait_for_state xb t.domain ~path:(bpath t) Xenbus.Connected;
  Array.iter
    (fun q ->
      Event_channel.set_handler t.ctx.Xen_ctx.ec q.q_port t.domain
        (handle_event t q))
    t.queues;
  Xenbus.switch_state xb t.domain ~path:(fpath t) Xenbus.Connected;
  t.connected <- true;
  attach_queue_metrics t;
  Condition.broadcast t.conn_cond;
  Condition.broadcast t.slot_cond;
  if t.monitor = None then start_monitor t

(* Crash recovery.  Runs in its own process once the monitor sees the
   backend close or vanish.  The journal is every pushed-but-unanswered
   request; after the re-handshake each entry is pushed verbatim into the
   fresh rings (re-steered by id, since the queue count may have been
   renegotiated).  An entry completed by the old backend is never
   replayed and a replayed entry's response completes its waiter exactly
   once, so the layer above sees exactly-once semantics. *)
and reconnect t () =
  fnote t "blkfront.reconnect";
  let journal =
    Int_table.fold (fun _ p acc -> p :: acc) t.pending []
    |> List.filter (fun p -> p.status = None)
    |> List.sort (fun a b -> compare a.p_id b.p_id)
  in
  (* The old channels died with the backend; the persistent pool's
     mappings were revoked, so its idle grants can be ended and re-made
     on demand against the rebooted backend.  The old rings are dead,
     so no journal slot is genuinely in flight anywhere: release the
     checker's claims before replay re-claims them on fresh queues. *)
  Array.iter
    (fun q -> Event_channel.close t.ctx.Xen_ctx.ec q.q_port)
    t.queues;
  List.iter (fun p -> mq_release t ~slot:p.p_id) journal;
  drain_pool t;
  (* Close first: Connected -> Closed -> Initialising is the legal
     reconnect path through the xenbus state machine. *)
  Xenbus.switch_state t.ctx.Xen_ctx.xb t.domain ~path:(fpath t) Xenbus.Closed;
  Xenbus.switch_state t.ctx.Xen_ctx.xb t.domain ~path:(fpath t)
    Xenbus.Initialising;
  connect t ();
  List.iter
    (fun p ->
      if p.status = None then begin
        t.replayed <- t.replayed + 1;
        push_entry t p
      end)
    journal;
  fnote t
    (Printf.sprintf "blkfront.replay.done n=%d"
       (List.length (List.filter (fun p -> p.status = None) journal)))

(* The backend-state monitor, armed after the first connect: a
   Closing/Closed/vanished backend becomes a reconnect cycle. *)
and start_monitor t =
  t.monitor <-
    Some
      (Split.monitor t.ctx t.domain ~bpath:(bpath t) ~token:"blkfront-monitor"
         ~live:(fun () -> (not t.shut) && t.connected)
         ~gone:(fun () ->
           t.connected <- false;
           t.reconnects <- t.reconnects + 1;
           fnote t "blkfront.backend-gone";
           Hypervisor.spawn t.ctx.Xen_ctx.hv t.domain
             ~name:"blkfront-reconnect" (reconnect t)))

(* Frontend-side telemetry.  Registered once at [create]; closures read
   [t] at sampling time, so ring replacement on reconnect needs no
   re-registration.  Aggregate ring gauges sum over the negotiated
   queues, keeping the seed series names stable whatever the queue
   count; per-queue families are added at connect in mq mode.  The
   request-latency histogram is pushed from [submit] (ns from ring push
   to completed response, covering watchdog re-issues and crash
   replays). *)
let attach_metrics t =
  match t.ctx.Xen_ctx.metrics with
  | None -> ()
  | Some r ->
      let module R = Kite_metrics.Registry in
      let vbd = t.name in
      let l = [ ("vbd", vbd); ("side", "frontend") ] in
      R.counter_fn r "kite_blk_requests_total" ~help:"Requests submitted" l
        (fun () -> t.requests);
      R.counter_fn r "kite_blk_reconnects_total"
        ~help:"Backend-gone reconnect cycles" l
        (fun () -> t.reconnects);
      R.counter_fn r "kite_blk_replayed_total"
        ~help:"Journal entries replayed after a crash" l
        (fun () -> t.replayed);
      R.counter_fn r "kite_blk_resubmits_total"
        ~help:"Watchdog re-issues of lost requests" l
        (fun () -> t.resubmits);
      R.gauge_fn r "kite_blk_pool_size"
        ~help:"Idle pages in the persistent-grant pool"
        [ ("vbd", vbd) ]
        (fun () -> float_of_int t.pool_n);
      R.gauge_fn r "kite_blk_pending"
        ~help:"Journal entries awaiting a response"
        [ ("vbd", vbd) ]
        (fun () -> float_of_int (Int_table.length t.pending));
      let sum f =
        Array.fold_left (fun acc q -> acc + f q) 0 t.queues |> float_of_int
      in
      R.gauge_fn r "kite_blk_ring_pending" ~help:"Unconsumed ring requests" l
        (fun () -> sum (fun q -> Ring.pending_requests q.q_ring));
      R.gauge_fn r "kite_blk_ring_free" ~help:"Free request slots" l
        (fun () -> sum (fun q -> Ring.free_requests q.q_ring));
      t.m_lat <-
        Some
          (R.histogram r "kite_blk_latency_ns" ~base:1000.0 ~factor:2.0
             ~help:"Request latency, ring push to response (simulated ns)"
             [ ("vbd", vbd) ]);
      R.probe r ~name:"kite_blk_pool_exhausted" [ ("vbd", vbd) ] (fun () ->
          let slots =
            Array.fold_left (fun a q -> a + Ring.size q.q_ring) 0 t.queues
          in
          if
            persistent_enabled t && t.pool_n = 0 && slots > 0
            && Int_table.length t.pending >= slots
          then
            R.Alert
              (Printf.sprintf
                 "persistent-grant pool empty with %d requests in flight"
                 (Int_table.length t.pending))
          else R.Healthy)

let create ctx ~domain ~backend ~devid ?(use_persistent = true)
    ?num_queues:ask_queues () =
  let t =
    {
      ctx;
      domain;
      backend;
      devid;
      name = Printf.sprintf "vbd%d.%d" domain.Domain.id devid;
      want_persistent = use_persistent;
      ask_queues;
      queues = [||];
      mq_mode = false;
      connected = false;
      shut = false;
      monitor = None;
      capacity = 0;
      backend_persistent = false;
      backend_indirect = 0;
      conn_cond = Condition.create ~label:"blkfront connect" ();
      slot_cond = Condition.create ~label:"blkfront ring slots" ();
      pending = Int_table.create 64;
      pool = [||];
      pool_n = 0;
      next_id = 0;
      requests = 0;
      reconnects = 0;
      replayed = 0;
      resubmits = 0;
      m_lat = None;
    }
  in
  attach_metrics t;
  Hypervisor.spawn ctx.Xen_ctx.hv domain ~name:"blkfront-setup" (connect t);
  t

let wait_connected t =
  while not t.connected do
    Condition.wait t.conn_cond
  done

(* Frontend close path.  The persistent pool's grants are still mapped on
   the backend side, so this must run {e after} {!Blkback.stop} has swept
   its persistent-reference table; [end_access] on a still-mapped grant is
   a protocol violation the checker reports. *)
let shutdown t =
  t.shut <- true;
  t.connected <- false;
  (match t.monitor with
  | Some id ->
      Xenbus.unwatch t.ctx.Xen_ctx.xb id;
      t.monitor <- None
  | None -> ());
  Int_table.iter (fun id _ -> mq_release t ~slot:id) t.pending;
  drain_pool t;
  Array.iter
    (fun q -> Event_channel.close t.ctx.Xen_ctx.ec q.q_port)
    t.queues
