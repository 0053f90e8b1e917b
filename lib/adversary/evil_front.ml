open Kite_sim
open Kite_xen
open Kite_drivers

(* A byzantine split-driver frontend, for either device type: mimics the
   honest handshake closely enough to connect, then drives exactly one
   attack primitive per call.  Every value it publishes is hostile by
   construction; the point is that the backend survives anyway.  No
   reconnect monitor is installed, so a quarantine offline is terminal —
   exactly what eviction means.  It never writes feature-persistent, so
   blkback treats its data grants as transient and unmaps them after
   every (rejected) request — what the attacker leaves granted at the
   end is its own to revoke. *)

type (_, _) device =
  | Vif : (Netchannel.tx_request, Netchannel.tx_response) device
  | Vbd : (Blkif.request, Blkif.response) device

type ('q, 'p) t = {
  device : ('q, 'p) device;
  ctx : Xen_ctx.t;
  domain : Domain.t;
  backend : Domain.t;
  devid : int;
  nq : int;
  mutable rings : ('q, 'p) Ring.t array;
  mutable ports : Event_channel.port array;
  mutable grants : Grant_table.ref_ list;
  mutable next_id : int;
  fpath : string;
  bpath : string;
}

type handshake = Honest | Forged_ring_ref | Hijacked_port | Garbage_keys

(* ------------------------------------------------------------------ *)
(* What the two protocols make different                               *)
(* ------------------------------------------------------------------ *)

let ty : type q p. (q, p) device -> string = function
  | Vif -> "vif"
  | Vbd -> "vbd"

let fill_byte : type q p. (q, p) device -> char = function
  | Vif -> '\xa5'
  | Vbd -> '\x5a'

let ring_order : type q p. (q, p) device -> int = function
  | Vif -> Netchannel.ring_order
  | Vbd -> Blkif.ring_order

(* The per-queue ring-reference keys, in publication order: net shares a
   Tx and an Rx ring per queue, blk one ring. *)
let ring_keys : type q p. (q, p) device -> string list = function
  | Vif -> [ "tx-ring-ref"; "rx-ring-ref" ]
  | Vbd -> [ "ring-ref" ]

(* Share one queue's request ring (net beside a fresh Rx ring); the
   references come back in [ring_keys] order. *)
let share : type q p. (q, p) t -> (q, p) Ring.t -> int list =
 fun t ring ->
  let owner = t.domain.Domain.id in
  match t.device with
  | Vif ->
      let reg = t.ctx.Xen_ctx.netrings in
      let tx = Netchannel.share_tx reg ~owner ring in
      let rx = Ring.create ~order:Netchannel.ring_order in
      [ tx; Netchannel.share_rx reg ~owner rx ]
  | Vbd -> [ Blkif.share t.ctx.Xen_ctx.blkrings ~owner ring ]

(* A request carried by one granted page: a Tx frame of [len] bytes from
   it, or a write of the whole page at [sector]. *)
let request : type q p.
    (q, p) t -> id:int -> gref:int -> len:int -> sector:int -> q =
 fun t ~id ~gref ~len ~sector ->
  match t.device with
  | Vif -> { Netchannel.tx_id = id; tx_gref = gref; tx_len = len }
  | Vbd ->
      {
        Blkif.req_id = id;
        op = Blkif.Write;
        sector;
        body = Blkif.Direct [ { Blkif.gref; first_sect = 0; last_sect = 7 } ];
      }

(* Honest blk grants are transient until the persistent map warms up,
   so a vbd polls briefly (1 ms apart) for a neighbour's grants to
   appear. *)
let foreign_polls : type q p. (q, p) device -> int = function
  | Vif -> 0
  | Vbd -> 50

(* The backend advertised its geometry before InitWait; read it back the
   same way an honest frontend would, to aim just past the edge. *)
let capacity_sectors t =
  match Xenbus.read t.ctx.Xen_ctx.xb t.domain ~path:(t.bpath ^ "/sectors") with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 1 lsl 30)
  | None -> 1 lsl 30

(* (len, sector) extents the backend must refuse to address: lengths
   outside the granted page (including negative) on a vif, sectors past
   the end of the device (and before its start) on a vbd. *)
let bad_extents : type q p. (q, p) t -> (int * int) list =
 fun t ->
  match t.device with
  | Vif ->
      List.map
        (fun len -> (len, 0))
        [ Page.size * 4; Page.size + 1; -1; Page.size * 16 ]
  | Vbd ->
      let cap = capacity_sectors t in
      List.map
        (fun sector -> (Page.size, sector))
        [ cap - 2; cap - 1; cap * 2; -5 ]

(* ------------------------------------------------------------------ *)
(* State and handshake                                                 *)
(* ------------------------------------------------------------------ *)

let create device ctx ~domain ~backend ~devid ~nq =
  let ty = ty device in
  {
    device;
    ctx;
    domain;
    backend;
    devid;
    nq;
    rings = [||];
    ports = [||];
    grants = [];
    next_id = 0;
    fpath = Xenbus.frontend_path ~frontend:domain ~ty ~devid;
    bpath = Xenbus.backend_path ~backend ~frontend:domain ~ty ~devid;
  }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

(* A page of junk, granted to the backend; remembered for cleanup. *)
let grant_page t =
  let page = Page.alloc () in
  Page.fill page (fill_byte t.device);
  let gref =
    Grant_table.grant_access t.ctx.Xen_ctx.gt ~granter:t.domain
      ~grantee:t.backend ~page ~writable:true
  in
  t.grants <- gref :: t.grants;
  gref

let handshake t mode =
  let xb = t.ctx.Xen_ctx.xb in
  Xenbus.wait_for_state xb t.domain ~path:t.bpath Xenbus.Init_wait;
  let put key v = Xenbus.write xb t.domain ~path:(t.fpath ^ "/" ^ key) v in
  let mq = t.nq > 1 in
  let key = Xenif.key ~mq in
  let put_num_queues () =
    if mq then put Xenif.Mq.key_num_queues (string_of_int t.nq)
  in
  (match mode with
  | Garbage_keys ->
      (* Malformed negotiation: unparsable queue count, no rings. *)
      put Xenif.Mq.key_num_queues "banana"
  | Forged_ring_ref ->
      put_num_queues ();
      (* References nobody ever shared. *)
      List.iteri
        (fun i k -> put (key 0 k) (string_of_int (999983 + i)))
        (ring_keys t.device);
      put (key 0 "event-channel") "7"
  | Hijacked_port | Honest ->
      put_num_queues ();
      t.rings <-
        Array.init t.nq (fun _ -> Ring.create ~order:(ring_order t.device));
      t.ports <- Array.make t.nq (-1);
      for qid = 0 to t.nq - 1 do
        List.iter2
          (fun k ref_ -> put (key qid k) (string_of_int ref_))
          (ring_keys t.device) (share t t.rings.(qid));
        let port =
          match mode with
          | Hijacked_port -> 999991 (* a port nobody allocated *)
          | _ ->
              let p =
                Event_channel.alloc_unbound t.ctx.Xen_ctx.ec t.domain
                  ~remote:t.backend
              in
              t.ports.(qid) <- p;
              p
        in
        put (key qid "event-channel") (string_of_int port)
      done);
  Xenbus.switch_state xb t.domain ~path:t.fpath Xenbus.Initialised;
  (* Only an honest handshake ends in Connected; the rejected modes get
     the backend's Closed instead, which we pointedly ignore. *)
  if mode = Honest then begin
    Xenbus.wait_for_state xb t.domain ~path:t.bpath Xenbus.Connected;
    Xenbus.switch_state xb t.domain ~path:t.fpath Xenbus.Connected
  end

(* The backend may already have offlined us (port closed): a dead
   doorbell is the attacker's problem, never an exception. *)
let notify t qid =
  try Event_channel.notify t.ctx.Xen_ctx.ec t.ports.(qid) ~from:t.domain
  with Event_channel.Evtchn_error _ -> ()

let nudge t qid =
  ignore (Ring.push_requests_and_check_notify t.rings.(qid));
  notify t qid

let push t qid req = Ring.push_request t.rings.(qid) req

(* ------------------------------------------------------------------ *)
(* Attack primitives.  Each volley lands >= [Quarantine] offline_after
   violations in one ring drain, so a single call walks the ladder to
   eviction (severe classes get there in one).                         *)
(* ------------------------------------------------------------------ *)

(* Forged and revoked grant references. *)
let attack_bad_gref t =
  for k = 0 to 1 do
    push t 0
      (request t ~id:(fresh_id t) ~gref:(999900 + k) ~len:512 ~sector:0)
  done;
  (* Granted, then revoked before the backend looks: a use-after-revoke. *)
  for _ = 0 to 1 do
    let g = grant_page t in
    Grant_table.end_access t.ctx.Xen_ctx.gt ~granter:t.domain g;
    t.grants <- List.filter (fun r -> r <> g) t.grants;
    push t 0 (request t ~id:(fresh_id t) ~gref:g ~len:512 ~sector:0)
  done;
  nudge t 0

(* References granted by some other (honest) domain: scan the grant
   table like a guest that guessed a neighbour's refs, re-scanning up to
   [foreign_polls] times; an empty table degrades to forged refs. *)
let attack_foreign_gref t ~victim =
  let gt = t.ctx.Xen_ctx.gt in
  let scan () =
    let found = ref [] in
    let r = ref 0 in
    while List.length !found < 4 && !r < 8192 do
      (match Grant_table.owner gt !r with
      | Some d when d = victim -> found := !r :: !found
      | _ -> ());
      incr r
    done;
    !found
  in
  let rec poll attempts =
    match scan () with
    | [] when attempts > 0 ->
        Process.sleep (Time.ms 1);
        poll (attempts - 1)
    | [] -> [ 999910; 999911; 999912; 999913 ]
    | l -> l
  in
  let found = poll (foreign_polls t.device) in
  (* Cycle whatever we got up to four descriptors so the volley still
     walks the full ladder even against a victim with one grant live. *)
  List.init 4 (fun k -> List.nth found (k mod List.length found))
  |> List.iter (fun g ->
         push t 0 (request t ~id:(fresh_id t) ~gref:g ~len:1024 ~sector:0));
  nudge t 0

(* Requests aimed outside what the device can address. *)
let attack_bad_length t =
  List.iter
    (fun (len, sector) ->
      push t 0 (request t ~id:(fresh_id t) ~gref:(grant_page t) ~len ~sector))
    (bad_extents t);
  nudge t 0

(* Segment-shape violations: descriptor counts past both the direct and
   indirect caps, and impossible geometry.  The counts are rejected
   before any reference is inspected, so forged grefs cost nothing. *)
let attack_bad_segment (t : (Blkif.request, Blkif.response) t) =
  let write body =
    { Blkif.req_id = fresh_id t; op = Blkif.Write; sector = 0; body }
  in
  let oversized k =
    let seg s =
      { Blkif.gref = 999920 + (16 * k) + s; first_sect = 0; last_sect = 7 }
    in
    Blkif.Direct (List.init 12 seg)
  in
  push t 0 (write (oversized 0));
  push t 0 (write (oversized 1));
  push t 0 (write (Blkif.Indirect ([ 999930 ], 500)));
  (* Geometry a page cannot have: first sector past the last. *)
  let backwards = { Blkif.gref = 999931; first_sect = 5; last_sect = 2 } in
  push t 0 (write (Blkif.Direct [ backwards ]));
  nudge t 0

(* A granted page blkback may not map: one reference named twice where
   blkback maps each use — in two segments of one direct request, by two
   requests of one drain, or as both descriptor pages of one indirect
   request (whose one descriptor names a granted page) — or a page
   granted to a third domain.  Each use alone is an honest write. *)
let attack_unmappable_gref (t : (Blkif.request, Blkif.response) t) how =
  let write ~sector body =
    { Blkif.req_id = fresh_id t; op = Blkif.Write; sector; body }
  in
  let seg gref = { Blkif.gref; first_sect = 0; last_sect = 7 } in
  (match how with
  | `Other_grantee ->
      let g =
        Grant_table.grant_access t.ctx.Xen_ctx.gt ~granter:t.domain
          ~grantee:(Hypervisor.dom0 t.ctx.Xen_ctx.hv) ~page:(Page.alloc ())
          ~writable:true
      in
      t.grants <- g :: t.grants;
      push t 0 (write ~sector:0 (Blkif.Direct [ seg g ]))
  | `Two_segments ->
      let g = grant_page t in
      push t 0 (write ~sector:0 (Blkif.Direct [ seg g; seg g ]))
  | `Two_requests ->
      let g = grant_page t in
      push t 0 (write ~sector:0 (Blkif.Direct [ seg g ]));
      push t 0 (write ~sector:8 (Blkif.Direct [ seg g ]))
  | `Two_descriptors ->
      let g = grant_page t in
      let bufs = Blkif.descriptor_buffers 1 in
      Blkif.put_descriptor bufs 0 ~gref:g ~first_sect:0 ~last_sect:7;
      let d =
        Grant_table.grant_access t.ctx.Xen_ctx.gt ~granter:t.domain
          ~grantee:t.backend ~page:(Page.of_bytes bufs.(0)) ~writable:false
      in
      t.grants <- d :: t.grants;
      push t 0 (write ~sector:0 (Blkif.Indirect ([ d; d ], 1))));
  nudge t 0

(* An honest write beside a forged one in one drain, and the honest
   write's grant ended while blkback answers the forged one: after its
   checks, before its map. *)
let attack_end_before_map (t : (Blkif.request, Blkif.response) t) =
  let g = grant_page t in
  push t 0 (request t ~id:(fresh_id t) ~gref:g ~len:Page.size ~sector:0);
  push t 0 (request t ~id:(fresh_id t) ~gref:999940 ~len:Page.size ~sector:8);
  nudge t 0;
  while Ring.pending_requests t.rings.(0) > 0 do
    Process.sleep 10
  done;
  Grant_table.end_access t.ctx.Xen_ctx.gt ~granter:t.domain g;
  t.grants <- List.filter (fun r -> r <> g) t.grants

(* The same request id replayed while still in flight, three pairs in
   one drain. *)
let attack_replay t =
  for _ = 1 to 3 do
    let id = fresh_id t in
    let gref = grant_page t in
    push t 0 (request t ~id ~gref ~len:256 ~sector:0);
    push t 0 (request t ~id ~gref ~len:256 ~sector:8)
  done;
  nudge t 0

(* One request id live on two queues at once (needs nq >= 2): queue 0
   registers it and yields into the grant copy or map; queue 1's drain
   sees it still in flight elsewhere. *)
let attack_slot_reuse t =
  let id = fresh_id t in
  push t 0 (request t ~id ~gref:(grant_page t) ~len:1024 ~sector:0);
  push t 1 (request t ~id ~gref:(grant_page t) ~len:1024 ~sector:8);
  nudge t 0;
  nudge t 1

(* Scribble the shared request-producer index far outside the valid
   window (severe: the backend offlines on sight). *)
let attack_ring_index t =
  Ring.poke_req_prod t.rings.(0) 1_000_000;
  notify t 0

(* Illegal frontend state transitions, written straight into the store
   behind xenbus's back. *)
let attack_xenbus_jump t =
  let xb = t.ctx.Xen_ctx.xb in
  List.iter
    (fun v ->
      Xenbus.write xb t.domain ~path:(t.fpath ^ "/state") v;
      Process.sleep (Time.ms 1))
    [ "2" (* Connected -> InitWait *); "9" (* garbage *); "1" ]

(* Notification storm: ring the doorbell far past the spurious-wakeup
   threshold with no work posted.  The spacing outlasts both the
   pending-bit coalescing window and the backend's cold wakeup charge
   (~306 us), so every notify lands while the worker is back in its
   wait and counts as a distinct empty wakeup. *)
let attack_storm t ~count =
  try
    for _ = 1 to count do
      Event_channel.notify t.ctx.Xen_ctx.ec t.ports.(0) ~from:t.domain;
      Process.sleep (Time.us 330)
    done
  with Event_channel.Evtchn_error _ -> () (* quarantined mid-storm *)

(* Revoke every grant still outstanding so the end-of-run audit sees no
   leak from the attacker either: the campaign's oracle is *zero*
   checker errors, including ours. *)
let cleanup t =
  List.iter
    (fun g ->
      try Grant_table.end_access t.ctx.Xen_ctx.gt ~granter:t.domain g
      with _ -> ())
    t.grants;
  t.grants <- []
