open Kite_sim
open Kite_xen
open Kite_drivers

(* A byzantine blkfront: the vbd twin of {!Evil_net}.  It never writes
   feature-persistent, so the backend treats its data grants as
   transient and unmaps them after every (rejected) request — what the
   attacker leaves granted at the end is its own to revoke. *)

type t = {
  ctx : Xen_ctx.t;
  domain : Domain.t;
  backend : Domain.t;
  devid : int;
  nq : int;
  mutable rings : Blkif.ring array;
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
    rings = [||];
    ports = [||];
    grants = [];
    next_id = 0;
    fpath = Xenbus.frontend_path ~frontend:domain ~ty:"vbd" ~devid;
    bpath = Xenbus.backend_path ~backend ~frontend:domain ~ty:"vbd" ~devid;
  }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let grant_page t =
  let page = Page.alloc () in
  Page.fill page '\x5a';
  let gref =
    Grant_table.grant_access t.ctx.Xen_ctx.gt ~granter:t.domain
      ~grantee:t.backend ~page ~writable:true
  in
  t.grants <- gref :: t.grants;
  gref

(* The backend advertised its geometry before InitWait; read it back the
   same way an honest frontend would, to aim just past the edge. *)
let capacity_sectors t =
  match Xenbus.read t.ctx.Xen_ctx.xb t.domain ~path:(t.bpath ^ "/sectors") with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 1 lsl 30)
  | None -> 1 lsl 30

let handshake t mode =
  let xb = t.ctx.Xen_ctx.xb in
  Xenbus.wait_for_state xb t.domain ~path:t.bpath Xenbus.Init_wait;
  let put key v = Xenbus.write xb t.domain ~path:(t.fpath ^ "/" ^ key) v in
  let mq = t.nq > 1 in
  let key = Xenif.key ~mq in
  (match mode with
  | Garbage_keys -> put Blkif.key_num_queues "banana"
  | Forged_ring_ref ->
      if mq then put Blkif.key_num_queues (string_of_int t.nq);
      put (key 0 "ring-ref") "999983";
      put (key 0 "event-channel") "7"
  | Hijacked_port | Honest ->
      if mq then put Blkif.key_num_queues (string_of_int t.nq);
      let reg = t.ctx.Xen_ctx.blkrings in
      let owner = t.domain.Domain.id in
      t.rings <- Array.init t.nq (fun _ -> Ring.create ~order:Blkif.ring_order);
      t.ports <- Array.make t.nq (-1);
      for qid = 0 to t.nq - 1 do
        put (key qid "ring-ref")
          (string_of_int (Blkif.share reg ~owner t.rings.(qid)));
        let port =
          match mode with
          | Hijacked_port -> 999991
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
  if mode = Honest then begin
    Xenbus.wait_for_state xb t.domain ~path:t.bpath Xenbus.Connected;
    Xenbus.switch_state xb t.domain ~path:t.fpath Xenbus.Connected
  end

let nudge t qid =
  ignore (Ring.push_requests_and_check_notify t.rings.(qid));
  try Event_channel.notify t.ctx.Xen_ctx.ec t.ports.(qid) ~from:t.domain
  with Event_channel.Evtchn_error _ -> ()

let push t qid req = Ring.push_request t.rings.(qid) req

let valid_seg t = { Blkif.gref = grant_page t; first_sect = 0; last_sect = 7 }

let direct t ?(sector = 0) segs =
  { Blkif.req_id = fresh_id t; op = Blkif.Write; sector; body = Blkif.Direct segs }

(* ------------------------------------------------------------------ *)
(* Attack primitives: one volley each, >= offline_after violations in
   a single ring drain.                                                *)
(* ------------------------------------------------------------------ *)

(* Segment-shape violations: descriptor counts past both the direct and
   indirect caps, and impossible geometry.  The counts are rejected
   before any reference is inspected, so forged grefs cost nothing. *)
let attack_bad_segment t =
  let oversized k =
    List.init 12 (fun s ->
        { Blkif.gref = 999920 + (16 * k) + s; first_sect = 0; last_sect = 7 })
  in
  push t 0 (direct t (oversized 0));
  push t 0 (direct t (oversized 1));
  push t 0
    {
      Blkif.req_id = fresh_id t;
      op = Blkif.Write;
      sector = 0;
      body = Blkif.Indirect ([ 999930 ], 500);
    };
  (* Geometry a page cannot have: first sector past the last. *)
  push t 0 (direct t [ { Blkif.gref = 999931; first_sect = 5; last_sect = 2 } ]);
  nudge t 0

(* Forged and revoked data grant references. *)
let attack_bad_gref t =
  for k = 0 to 1 do
    push t 0
      (direct t [ { Blkif.gref = 999900 + k; first_sect = 0; last_sect = 7 } ])
  done;
  for _ = 0 to 1 do
    let g = grant_page t in
    Grant_table.end_access t.ctx.Xen_ctx.gt ~granter:t.domain g;
    t.grants <- List.filter (fun r -> r <> g) t.grants;
    push t 0 (direct t [ { Blkif.gref = g; first_sect = 0; last_sect = 7 } ])
  done;
  nudge t 0

(* Data references granted by an honest neighbour.  Honest blk grants
   are transient until the persistent map warms up, so poll briefly for
   some to appear; an empty table degrades to forged refs. *)
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
  (* The victim may have fewer than four grants live right now; cycle
     what we got so the volley still walks the full ladder. *)
  let refs =
    match poll 50 with
    | [] -> []
    | l -> List.init 4 (fun k -> List.nth l (k mod List.length l))
  in
  List.iter
    (fun g -> push t 0 (direct t [ { Blkif.gref = g; first_sect = 0; last_sect = 7 } ]))
    refs;
  nudge t 0

(* Requests aimed past the end of the device (and before its start). *)
let attack_bad_length t =
  let cap = capacity_sectors t in
  List.iter
    (fun sector -> push t 0 (direct t ~sector [ valid_seg t ]))
    [ cap - 2; cap - 1; cap * 2; -5 ];
  nudge t 0

(* Duplicate in-flight request ids, three pairs in one drain. *)
let attack_replay t =
  for _ = 1 to 3 do
    let id = fresh_id t in
    let seg = valid_seg t in
    push t 0 { Blkif.req_id = id; op = Blkif.Write; sector = 0; body = Blkif.Direct [ seg ] };
    push t 0 { Blkif.req_id = id; op = Blkif.Write; sector = 8; body = Blkif.Direct [ seg ] }
  done;
  nudge t 0

(* One request id live on two rings at once (needs nq >= 2). *)
let attack_slot_reuse t =
  let id = fresh_id t in
  push t 0 { Blkif.req_id = id; op = Blkif.Write; sector = 0; body = Blkif.Direct [ valid_seg t ] };
  push t 1 { Blkif.req_id = id; op = Blkif.Write; sector = 8; body = Blkif.Direct [ valid_seg t ] };
  nudge t 0;
  nudge t 1

(* Severe: scribble the shared producer index. *)
let attack_ring_index t =
  Ring.poke_req_prod t.rings.(0) 1_000_000;
  try Event_channel.notify t.ctx.Xen_ctx.ec t.ports.(0) ~from:t.domain
  with Event_channel.Evtchn_error _ -> ()

let attack_xenbus_jump t =
  let xb = t.ctx.Xen_ctx.xb in
  List.iter
    (fun v ->
      Xenbus.write xb t.domain ~path:(t.fpath ^ "/state") v;
      Process.sleep (Time.ms 1))
    [ "2"; "9"; "1" ]

(* Spacing outlasts the backend's cold wakeup charge so every notify
   counts as a distinct empty wakeup; see {!Evil_net.attack_storm}. *)
let attack_storm t ~count =
  try
    for _ = 1 to count do
      Event_channel.notify t.ctx.Xen_ctx.ec t.ports.(0) ~from:t.domain;
      Process.sleep (Time.us 330)
    done
  with Event_channel.Evtchn_error _ -> ()

let cleanup t =
  List.iter
    (fun g ->
      try Grant_table.end_access t.ctx.Xen_ctx.gt ~granter:t.domain g
      with _ -> ())
    t.grants;
  t.grants <- []
