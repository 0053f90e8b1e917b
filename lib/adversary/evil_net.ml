open Kite_sim
open Kite_xen
open Kite_drivers

(* A byzantine netfront: mimics the honest handshake closely enough to
   connect, then drives exactly one attack primitive per call.  Every
   value it publishes is hostile by construction; the point is that the
   backend survives anyway.  No reconnect monitor is installed, so a
   quarantine offline is terminal — exactly what eviction means. *)

type t = {
  ctx : Xen_ctx.t;
  domain : Domain.t;
  backend : Domain.t;
  devid : int;
  nq : int;
  mutable txs : Netchannel.tx_ring array;
  mutable ports : Event_channel.port array;
  mutable grants : Grant_table.ref_ list;
  mutable next_id : int;
  fpath : string;
  bpath : string;
}

type handshake = Honest | Forged_ring_ref | Hijacked_port | Garbage_keys

let create ctx ~domain ~backend ~devid ~nq =
  {
    ctx;
    domain;
    backend;
    devid;
    nq;
    txs = [||];
    ports = [||];
    grants = [];
    next_id = 0;
    fpath = Xenbus.frontend_path ~frontend:domain ~ty:"vif" ~devid;
    bpath = Xenbus.backend_path ~backend ~frontend:domain ~ty:"vif" ~devid;
  }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

(* A page of junk, granted to the backend; remembered for cleanup. *)
let grant_page t =
  let page = Page.alloc () in
  Page.fill page '\xa5';
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
  (match mode with
  | Garbage_keys ->
      (* Malformed negotiation: unparsable queue count, no rings. *)
      put Netchannel.key_num_queues "banana"
  | Forged_ring_ref ->
      if mq then put Netchannel.key_num_queues (string_of_int t.nq);
      (* References nobody ever shared. *)
      put (key 0 "tx-ring-ref") "999983";
      put (key 0 "rx-ring-ref") "999984";
      put (key 0 "event-channel") "7"
  | Hijacked_port | Honest ->
      if mq then put Netchannel.key_num_queues (string_of_int t.nq);
      let reg = t.ctx.Xen_ctx.netrings in
      let owner = t.domain.Domain.id in
      t.txs <-
        Array.init t.nq (fun _ -> Ring.create ~order:Netchannel.ring_order);
      t.ports <- Array.make t.nq (-1);
      for qid = 0 to t.nq - 1 do
        let rx : Netchannel.rx_ring = Ring.create ~order:Netchannel.ring_order in
        put (key qid "tx-ring-ref")
          (string_of_int (Netchannel.share_tx reg ~owner t.txs.(qid)));
        put (key qid "rx-ring-ref")
          (string_of_int (Netchannel.share_rx reg ~owner rx));
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
let nudge t qid =
  ignore (Ring.push_requests_and_check_notify t.txs.(qid));
  try Event_channel.notify t.ctx.Xen_ctx.ec t.ports.(qid) ~from:t.domain
  with Event_channel.Evtchn_error _ -> ()

let push t qid req = Ring.push_request t.txs.(qid) req

(* ------------------------------------------------------------------ *)
(* Attack primitives.  Each volley lands >= [Quarantine] offline_after
   violations in one ring drain, so a single call walks the ladder to
   eviction (severe classes get there in one).                         *)
(* ------------------------------------------------------------------ *)

(* Forged and revoked grant references. *)
let attack_bad_gref t =
  for k = 0 to 1 do
    push t 0 { Netchannel.tx_id = fresh_id t; tx_gref = 999900 + k; tx_len = 512 }
  done;
  (* Granted, then revoked before the backend looks: a use-after-revoke. *)
  for _ = 0 to 1 do
    let g = grant_page t in
    Grant_table.end_access t.ctx.Xen_ctx.gt ~granter:t.domain g;
    t.grants <- List.filter (fun r -> r <> g) t.grants;
    push t 0 { Netchannel.tx_id = fresh_id t; tx_gref = g; tx_len = 512 }
  done;
  nudge t 0

(* References granted by some other (honest) domain: scan the grant
   table like a guest that guessed a neighbour's refs. *)
let attack_foreign_gref t ~victim =
  let gt = t.ctx.Xen_ctx.gt in
  let found = ref [] in
  let r = ref 0 in
  while List.length !found < 4 && !r < 8192 do
    (match Grant_table.owner gt !r with
    | Some d when d = victim -> found := !r :: !found
    | _ -> ());
    incr r
  done;
  (* Cycle whatever we got up to four descriptors so the volley still
     walks the full ladder even against a victim with one grant live. *)
  let refs =
    match !found with
    | [] -> [ 999910; 999911; 999912; 999913 ] (* degrade to forged refs *)
    | l -> List.init 4 (fun k -> List.nth l (k mod List.length l))
  in
  List.iter
    (fun g -> push t 0 { Netchannel.tx_id = fresh_id t; tx_gref = g; tx_len = 1024 })
    refs;
  nudge t 0

(* Descriptor lengths outside the page. *)
let attack_bad_length t =
  List.iter
    (fun len ->
      push t 0 { Netchannel.tx_id = fresh_id t; tx_gref = grant_page t; tx_len = len })
    [ Page.size * 4; Page.size + 1; -1; Page.size * 16 ];
  nudge t 0

(* The same request id replayed while still in flight, three pairs in
   one drain. *)
let attack_replay t =
  for _ = 1 to 3 do
    let id = fresh_id t in
    let g = grant_page t in
    push t 0 { Netchannel.tx_id = id; tx_gref = g; tx_len = 256 };
    push t 0 { Netchannel.tx_id = id; tx_gref = g; tx_len = 256 }
  done;
  nudge t 0

(* One request id live on two queues at once (needs nq >= 2): queue 0
   registers it and yields into the grant copy; queue 1's drain sees it
   still in flight elsewhere. *)
let attack_slot_reuse t =
  let id = fresh_id t in
  push t 0 { Netchannel.tx_id = id; tx_gref = grant_page t; tx_len = 1024 };
  push t 1 { Netchannel.tx_id = id; tx_gref = grant_page t; tx_len = 1024 };
  nudge t 0;
  nudge t 1

(* Scribble the shared request-producer index far outside the valid
   window (severe: the backend offlines on sight). *)
let attack_ring_index t =
  Ring.poke_req_prod t.txs.(0) 1_000_000;
  try Event_channel.notify t.ctx.Xen_ctx.ec t.ports.(0) ~from:t.domain
  with Event_channel.Evtchn_error _ -> ()

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
