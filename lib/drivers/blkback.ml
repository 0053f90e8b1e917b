open Kite_sim
open Kite_xen

let sector_size = Kite_devices.Nvme.sector_size

(* One negotiated ring with its own event channel, wake condition and
   request thread.  Legacy frontends get exactly one wired to the flat
   xenstore keys. *)
type rstate = {
  rid : int;
  ring : Blkif.ring;
  rport : Event_channel.port;
  rwake : Condition.t;
  mutable r_requests : int;
  mutable spurious : int;  (* consecutive wakeups that drained nothing *)
}

type instance = {
  dev : Split.dev;
  device : Kite_devices.Nvme.t;
  rings : rstate array;
  persistent : bool;  (* negotiated *)
  batching : bool;
  (* Grants held mapped across requests (the persistent-reference table of
     §3.3); shared by every ring (persistence is per-device), released in
     one sweep on disconnect. *)
  pmap : Grant_table.entry Int_table.t;
  (* What the device holds of each reference, one byte per reference
     number: [in_flight] while a request in flight names it, from
     validation until the request is released (a descriptor page until
     its run is parsed), so that each map meets one unmap; [held] while
     [pmap] has it.  The grant table numbers references with small
     consecutive ints, and only one it knows is ever marked. *)
  mutable marks : Bytes.t;
  mutable requests : int;
  mutable segments : int;
  mutable device_ops : int;
  mutable io_retries : int;
  mutable indirect_reqs : int;
  mutable inflight : int;
  (* request ids currently being served, across every ring of the
     device: id -> rid.  Detects in-flight replay and cross-ring slot
     reuse. *)
  req_ids : int Int_table.t;
  io_name : string;  (* "blkback-io-F.D", one per device operation *)
}

type t = instance Split.t

let instances = Split.instances
let rejected = Split.rejected
let frontend_domid i = i.dev.frontend.Domain.id
let devid i = i.dev.devid
let quarantine i = i.dev.guard
let requests_served i = i.requests
let segments_served i = i.segments
let device_ops i = i.device_ops
let io_retries i = i.io_retries
let num_queues i = Array.length i.rings

let hv i = i.dev.ctx.Xen_ctx.hv
let trace i = i.dev.ctx.Xen_ctx.trace

(* ------------------------------------------------------------------ *)
(* Trust boundary: every ring index, grant reference, segment
   descriptor, request id and negotiation key the frontend publishes
   is attacker-controlled.  Violations become typed Guest_faults
   feeding the per-device quarantine ladder.                           *)
(* ------------------------------------------------------------------ *)

let storm_threshold = 64

(* A request once validated: the backend's own copy of its segments,
   parsed once from the request the frontend pushed (so a segment cannot
   change after its check), the grant entry validation found for each,
   and, once mapped, the page range each names in the device's
   scatter-gather form. *)
type work = {
  req : Blkif.request;
  segs : Blkif.segment array;
  entries : Grant_table.entry array;
  total_bytes : int;
  sg : Kite_devices.Nvme.segment array;
}

(* After a crash ([stop] set abruptly) the ring is dead and the channel
   closed: late completions from workers already in the device must not
   touch either.  A hostile frontend that never consumes responses can
   also fill the response side — that is its own loss, never ours
   (Ring_full swallowed). *)
let respond_id i r ~id status =
  if not i.dev.stop then begin
    (try Ring.push_response r.ring { Blkif.rsp_id = id; status }
     with Ring.Ring_full -> ());
    if Ring.push_responses_and_check_notify r.ring then
      try Event_channel.notify i.dev.ctx.Xen_ctx.ec r.rport ~from:i.dev.domain
      with Event_channel.Evtchn_error _ -> ()
  end

let respond i r work status =
  Int_table.remove i.req_ids work.req.Blkif.req_id;
  respond_id i r ~id:work.req.Blkif.req_id status

let in_flight = 1
let held = 2

let marked i g m =
  g < Bytes.length i.marks && Char.code (Bytes.get i.marks g) land m <> 0

let mark i g m =
  let n = Bytes.length i.marks in
  if g >= n then begin
    let grown = Bytes.make (max (g + 1) (2 * n)) '\000' in
    Bytes.blit i.marks 0 grown 0 n;
    i.marks <- grown
  end;
  Bytes.set i.marks g (Char.chr (Char.code (Bytes.get i.marks g) lor m))

(* A detach or crash drops every mark at once, so a release after it
   finds none. *)
let unmark i g m =
  if g < Bytes.length i.marks then
    Bytes.set i.marks g
      (Char.chr (Char.code (Bytes.get i.marks g) land lnot m))

let unclaim i entries =
  Array.iter (fun e -> unmark i (Grant_table.gref e) in_flight) entries

(* A reference, descriptor or request the frontend may not use, and
   why. *)
exception Violation of Guest_fault.attack * string

let violation attack fmt =
  Printf.ksprintf (fun detail -> raise (Violation (attack, detail))) fmt

(* One lookup per reference the frontend names: its live entry, or a
   [Violation] — unknown or revoked, granted by another domain or to
   another, or already named by a request in flight (in this request or
   another one). *)
let lookup i ~what g =
  match Grant_table.find i.dev.ctx.Xen_ctx.gt g with
  | None ->
      violation Guest_fault.Bad_gref "%s gref %d unknown or revoked" what g
  | Some e ->
      let granter = Grant_table.granter e
      and grantee = Grant_table.grantee e in
      if granter <> i.dev.frontend.Domain.id then
        violation Guest_fault.Foreign_gref "%s gref %d granted by domain %d"
          what g granter
      else if grantee <> i.dev.domain.Domain.id then
        violation Guest_fault.Bad_gref "%s gref %d granted to domain %d" what
          g grantee
      else if marked i g in_flight then
        violation Guest_fault.Bad_gref
          "%s gref %d already named by a request in flight" what g
      else e

(* Stage-1 validation, before any grant is touched: request-id liveness
   (in-flight replay on the same ring, slot reuse across rings) and the
   shape of the descriptor chain — segment counts against the
   advertised limits, and every indirect descriptor page, which is
   claimed and whose entry is returned.  A descriptor page may not be a
   grant held mapped as persistent either: its unmap would drop that
   mapping. *)
let validate_pre i r req =
  let id = req.Blkif.req_id in
  match Int_table.find_opt i.req_ids id with
  | Some rid when rid = r.rid ->
      Error
        ( Guest_fault.Replay,
          Printf.sprintf "request id %d replayed while in flight" id )
  | Some rid ->
      Error
        ( Guest_fault.Slot_reuse,
          Printf.sprintf "request id %d already live on ring %d" id rid )
  | None -> (
      match req.Blkif.body with
      | Blkif.Direct segs ->
          let n = List.length segs in
          if n > Blkif.max_direct_segments then
            Error
              ( Guest_fault.Bad_segment,
                Printf.sprintf "%d direct segments (max %d)" n
                  Blkif.max_direct_segments )
          else Ok [||]
      | Blkif.Indirect (grefs, count) ->
          if count < 0 || count > Blkif.max_indirect_segments then
            Error
              ( Guest_fault.Bad_segment,
                Printf.sprintf "indirect segment count %d (max %d)" count
                  Blkif.max_indirect_segments )
          else begin
            let needed =
              (count + Blkif.segments_per_indirect_page - 1)
              / Blkif.segments_per_indirect_page
            in
            if List.length grefs < needed then
              Error
                ( Guest_fault.Bad_segment,
                  Printf.sprintf
                    "%d descriptor pages published for %d segments"
                    (List.length grefs) count )
            else
              let rec take acc = function
                | [] -> Ok (Array.of_list (List.rev acc))
                | g :: rest -> (
                    match
                      let e = lookup i ~what:"indirect descriptor" g in
                      if marked i g held then
                        violation Guest_fault.Bad_gref
                          "indirect descriptor gref %d is held mapped as a \
                           persistent grant"
                          g;
                      e
                    with
                    | e ->
                        mark i g in_flight;
                        take (e :: acc) rest
                    | exception Violation (attack, detail) ->
                        unclaim i (Array.of_list acc);
                        Error (attack, detail))
              in
              take [] grefs
          end)

(* Stage-2 validation, once the segments are parsed (for indirect
   requests out of the descriptor pages — themselves attacker-controlled
   bytes): per-segment sector geometry, one lookup and claim per data
   gref, and the request's sector range against the device capacity.
   Returns the entries and the request's byte count; a violation
   releases the claims this request took. *)
let validate_segs i req segs =
  let sect_per_page = Page.size / sector_size in
  let n = Array.length segs in
  let fail k v =
    for j = 0 to k - 1 do
      unmark i segs.(j).Blkif.gref in_flight
    done;
    Error v
  in
  let rec check k entries total =
    if k = n then begin
      let sectors = total / sector_size in
      let cap = Kite_devices.Nvme.capacity_sectors i.device in
      if req.Blkif.sector < 0 || req.Blkif.sector + sectors > cap then
        fail n
          ( Guest_fault.Bad_length,
            Printf.sprintf "sector range [%d, %d) beyond capacity %d"
              req.Blkif.sector
              (req.Blkif.sector + sectors)
              cap )
      else Ok (entries, total)
    end
    else
      let s = segs.(k) in
      if
        s.Blkif.first_sect < 0
        || s.Blkif.last_sect < s.Blkif.first_sect
        || s.Blkif.last_sect >= sect_per_page
      then
        fail k
          ( Guest_fault.Bad_segment,
            Printf.sprintf "segment geometry first=%d last=%d (page holds %d)"
              s.Blkif.first_sect s.Blkif.last_sect sect_per_page )
      else
        match lookup i ~what:"data" s.Blkif.gref with
        | exception Violation (attack, detail) -> fail k (attack, detail)
        | e ->
            let entries = if k = 0 then Array.make n e else entries in
            entries.(k) <- e;
            mark i s.Blkif.gref in_flight;
            check (k + 1) entries (total + Blkif.segment_bytes s)
  in
  check 0 [||] 0

(* A violator is answered with status_error and reported as a typed
   Guest_fault (which may quarantine the whole device mid-run); the
   references it claimed are released. *)
let reject i r req entries (attack, detail) =
  i.inflight <- i.inflight - 1;
  unclaim i entries;
  Int_table.remove i.req_ids req.Blkif.req_id;
  respond_id i r ~id:req.Blkif.req_id Blkif.status_error;
  Split.record_fault i.dev ~attack ~detail

(* The thread keeps the entries validation found, and it may sleep
   before it maps them (answering a violator is a hypercall), so the
   frontend may have ended a grant meanwhile.  Just before a map, each
   request whose entries are not all live is rejected; that answer
   sleeps too, so look again until none is. *)
let rec drop_revoked i r ~what ~entries ~req items =
  let live x = Array.for_all Grant_table.live (entries x) in
  if List.for_all live items then items
  else begin
    let items, dead = List.partition live items in
    List.iter
      (fun x ->
        let es = entries x in
        let e =
          Option.get (Array.find_opt (fun e -> not (Grant_table.live e)) es)
        in
        reject i r (req x) es
          ( Guest_fault.Bad_gref,
            Printf.sprintf "%s gref %d revoked before it was mapped" what
              (Grant_table.gref e) ))
      dead;
    drop_revoked i r ~what ~entries ~req items
  end

(* Prepare a whole drained run with coalesced grant-table hypercalls:
   every indirect descriptor page in the run is mapped (and unmapped)
   in one batched call, and every data gref in the run rides a single
   map hypercall — the grant-op trap cost is amortized across the
   queue's pending requests instead of paid per request.  A 1-request
   run costs exactly what the old per-request path did.

   Every request passes [validate_pre] before any of its grants are
   touched and [validate_segs] once its segments are parsed; each
   reference is looked up once, and mapped from the entry found. *)
let prepare_run i r reqs =
  let gt = i.dev.ctx.Xen_ctx.gt and grantee = i.dev.domain in
  let pre =
    List.filter_map
      (fun req ->
        match validate_pre i r req with
        | Error (attack, detail) ->
            respond_id i r ~id:req.Blkif.req_id Blkif.status_error;
            Split.record_fault i.dev ~attack ~detail;
            None
        | Ok descs ->
            Int_table.replace i.req_ids req.Blkif.req_id r.rid;
            Some (req, descs))
      reqs
  in
  match pre with
  | [] -> []
  | _ when i.dev.stop -> []  (* quarantine offlined the device mid-run *)
  | pre -> (
      List.iter
        (fun (req, _) ->
          (match req.Blkif.body with
          | Blkif.Indirect _ -> i.indirect_reqs <- i.indirect_reqs + 1
          | Blkif.Direct _ -> ());
          i.inflight <- i.inflight + 1)
        pre;
      (* Segment parsing: one map/unmap pair covers every indirect
         descriptor page in the run (parsing the packed bytes, as the
         real driver does). *)
      let pre =
        drop_revoked i r ~what:"indirect descriptor" ~entries:snd ~req:fst pre
      in
      if i.dev.stop then []
      else
        let descs = Array.concat (List.map snd pre) in
        Grant_table.map_many gt ~grantee descs;
        let parsed =
          List.map
            (fun (req, ds) ->
              match req.Blkif.body with
              | Blkif.Direct segs -> (req, Array.of_list segs)
              | Blkif.Indirect (_, count) ->
                  ( req,
                    Blkif.unpack_segments (Array.map Grant_table.page ds)
                      ~count ))
            pre
        in
        Grant_table.unmap_many gt ~grantee descs;
        unclaim i descs;
        (* Stage-2: the parsed segments (possibly out of
           attacker-controlled descriptor pages) are themselves validated
           before the data grefs ride the pooled map hypercall. *)
        let prepared =
          List.filter_map
            (fun (req, segs) ->
              match validate_segs i req segs with
              | Error v ->
                  reject i r req [||] v;
                  None
              | Ok (entries, total_bytes) ->
                  Some { req; segs; entries; total_bytes; sg = [||] })
            parsed
        in
        if i.dev.stop then []  (* quarantine offlined the device mid-run *)
        else begin
          List.iter
            (fun w ->
              match trace i with
              | Some tr ->
                  (* Persistent grants hit the map fast path (already
                     mapped => free). *)
                  let hits =
                    if i.persistent then
                      Array.fold_left
                        (fun a s ->
                          if marked i s.Blkif.gref held then a + 1
                          else a)
                        0 w.segs
                    else 0
                  in
                  let indirect =
                    match w.req.Blkif.body with
                    | Blkif.Indirect _ -> true
                    | Blkif.Direct _ -> false
                  in
                  Kite_trace.Trace.span_hop tr
                    ~at:(Hypervisor.now (hv i))
                    ~kind:"blk" ~key:i.dev.name ~id:w.req.Blkif.req_id
                    ~stage:"map"
                    ~args:
                      [
                        Int ("segs", Array.length w.segs);
                        Int ("persistent_hits", hits);
                        Int ("indirect", Bool.to_int indirect);
                      ];
                  Split.kernel_grant_ops i.dev
                    i.dev.ov.Overheads.blk_kernel_grant_ops
              | None -> ())
            prepared;
          let prepared =
            drop_revoked i r ~what:"data"
              ~entries:(fun w -> w.entries)
              ~req:(fun w -> w.req)
              prepared
          in
          if i.dev.stop then []
          else begin
            (* Data pages: one pooled map hypercall for the whole run. *)
            Grant_table.map_many gt ~grantee
              (Array.concat (List.map (fun w -> w.entries) prepared));
            List.map
              (fun w ->
                if i.persistent then
                  Array.iteri
                    (fun k s ->
                      if Kite_race.Race.active () then
                        Kite_race.Race.scoped_write
                          ~loc:
                            (Printf.sprintf "%s.pmap[%d]" i.dev.name
                               s.Blkif.gref)
                          ~site:"Blkback.persist";
                      if not (marked i s.Blkif.gref held) then begin
                        Int_table.add i.pmap s.Blkif.gref w.entries.(k);
                        mark i s.Blkif.gref held
                      end)
                    w.segs;
                (* Per-request and per-segment CPU happens here in the
                   request thread, overlapping with device operations
                   already in flight. *)
                Hypervisor.cpu_work (hv i) i.dev.domain
                  (i.dev.ov.Overheads.blk_per_request
                  + i.dev.ov.Overheads.blk_per_segment * Array.length w.segs);
                {
                  w with
                  sg =
                    Array.mapi
                      (fun k s ->
                        ( Grant_table.page w.entries.(k),
                          s.Blkif.first_sect * sector_size,
                          Blkif.segment_bytes s ))
                      w.segs;
                })
              prepared
          end
        end)

let release i w =
  if not i.persistent then
    Grant_table.unmap_many i.dev.ctx.Xen_ctx.gt ~grantee:i.dev.domain
      w.entries;
  unclaim i w.entries

(* Execute one batch of works sharing an operation and contiguous on the
   device: a single physical operation. *)
let run_batch i r op sector works =
  (match trace i with
  | Some tr ->
      let at = Hypervisor.now (hv i) in
      List.iter
        (fun w ->
          Kite_trace.Trace.span_hop tr ~at ~kind:"blk" ~key:i.dev.name
            ~id:w.req.Blkif.req_id ~stage:"device"
            ~args:[ Int ("merged", List.length works) ])
        works
  | None -> ());
  (* One submission/completion overhead per (possibly merged) physical
     operation — the term batching amortizes. *)
  Hypervisor.cpu_work (hv i) i.dev.domain i.dev.ov.Overheads.blk_per_request;
  (* The device moves the data straight between the mapped pages and its
     media. *)
  let sg =
    match works with
    | [ w ] -> w.sg
    | works -> Array.concat (List.map (fun w -> w.sg) works)
  in
  (* Transient device errors (an injected NVMe hiccup) are retried with
     exponential backoff; only after [Split.retries] attempts is the batch
     failed back to the frontend.  A crash mid-batch ([stop] set abruptly)
     makes the worker finish its device op and then do nothing: the
     grants were revoked with the domain and the ring is dead. *)
  let rec perform n =
    try
      (match op with
      | Blkif.Read -> Kite_devices.Nvme.read i.device ~sector sg
      | Blkif.Write -> Kite_devices.Nvme.write i.device ~sector sg
      | Blkif.Flush -> Kite_devices.Nvme.flush i.device);
      true
    with
    | Kite_devices.Nvme.Transient_error _
      when n < Split.retries && not i.dev.stop ->
        i.io_retries <- i.io_retries + 1;
        Split.fnote i.dev (Printf.sprintf "blkback.io-retry n=%d" (n + 1));
        Process.sleep (Split.retry_backoff * (1 lsl n));
        perform (n + 1)
    | Kite_devices.Nvme.Transient_error _ | Kite_devices.Nvme.Out_of_range _
      ->
        false
  in
  let ok = perform 0 in
  i.inflight <- i.inflight - List.length works;
  if not i.dev.stop then begin
    if ok then begin
      i.device_ops <- i.device_ops + 1;
      List.iter
        (fun w ->
          i.requests <- i.requests + 1;
          r.r_requests <- r.r_requests + 1;
          i.segments <- i.segments + Array.length w.segs;
          release i w;
          (match trace i with
          | Some tr ->
              Kite_trace.Trace.span_hop tr
                ~at:(Hypervisor.now (hv i))
                ~kind:"blk" ~key:i.dev.name ~id:w.req.Blkif.req_id
                ~stage:"complete" ~args:[]
          | None -> ());
          respond i r w Blkif.status_ok)
        works
    end
    else
      List.iter
        (fun w ->
          release i w;
          respond i r w Blkif.status_error)
        works
  end

(* Group a drained run of requests into batches of device-contiguous,
   same-operation requests (the paper's consecutive-segment batching). *)
let into_batches (i : instance) works =
  if not i.batching then
    List.map (fun w -> (w.req.Blkif.op, w.req.Blkif.sector, [ w ])) works
  else begin
    let batches = ref [] in
    let current = ref None in
    let flush_current () =
      match !current with
      | Some (op, sector, ws) ->
          batches := (op, sector, List.rev ws) :: !batches;
          current := None
      | None -> ()
    in
    List.iter
      (fun w ->
        let op = w.req.Blkif.op in
        let sector = w.req.Blkif.sector in
        match !current with
        | Some (cop, csector, ws)
          when cop = op && op <> Blkif.Flush
               && csector
                  + List.fold_left (fun a x -> a + x.total_bytes) 0 ws
                    / sector_size
                  = sector ->
            current := Some (cop, csector, w :: ws)
        | Some _ ->
            flush_current ();
            current := Some (op, sector, [ w ])
        | None -> current := Some (op, sector, [ w ]))
      works;
    flush_current ();
    List.rev !batches
  end

(* The dedicated request thread of §3.3, one per negotiated ring:
   drains the ring, prepares the run with coalesced grant hypercalls
   and batches it, then hands each batch to an async worker so later
   requests are not blocked behind slow ones. *)
let request_thread i r () =
  let rec drain acc =
    match Ring.take_request r.ring with
    | Some req ->
        (* Explicit dequeue hop: the request leaves the ring here, so
           [ring] measured pure in-ring wait and [backend] starts at
           validation. *)
        (match trace i with
        | Some tr ->
            Kite_trace.Trace.span_hop tr
              ~at:(Hypervisor.now (hv i))
              ~kind:"blk" ~key:i.dev.name ~id:req.Blkif.req_id
              ~stage:"backend"
              ~args:[ Int ("q", r.rid) ]
        | None -> ());
        drain (req :: acc)
    | None -> List.rev acc
  in
  let rec loop () =
    if i.dev.stop then ()
    else begin
      (* The shared producer index is frontend-writable memory: refuse
         to walk a ring whose request window is impossible.  A scribbled
         index is unrecoverable (severe) — quarantine offlines the
         device outright rather than spinning on garbage. *)
      let reqs =
        if not (Ring.request_producer_valid r.ring) then begin
          Split.record_fault i.dev ~attack:Guest_fault.Ring_index
            ~detail:
              (Printf.sprintf "ring %d request producer outside the valid \
                               window" r.rid);
          []
        end
        else drain []
      in
      if reqs <> [] then r.spurious <- 0
      else if not i.dev.stop then begin
        (* Notification storms: wakeups that never carry work. *)
        r.spurious <- r.spurious + 1;
        if r.spurious >= storm_threshold then begin
          r.spurious <- 0;
          Split.record_fault i.dev ~attack:Guest_fault.Evtchn_storm
            ~detail:
              (Printf.sprintf "%d consecutive empty notifications"
                 storm_threshold)
        end
      end;
      let works = prepare_run i r reqs in
      if works <> [] then begin
        Split.touch i.dev;
        (match trace i with
        | Some tr ->
            Kite_trace.Trace.driver tr
              ~at:(Hypervisor.now (hv i))
              ~domain:i.dev.domain.Domain.name ~name:"blkback.batch"
              ~args:
                [
                  Str ("vbd", i.dev.name);
                  Int ("n", List.length works);
                  Int ("queue", r.rid);
                ]
        | None -> ());
        List.iter
          (fun (op, sector, ws) ->
            Hypervisor.spawn (hv i) i.dev.domain ~name:i.io_name (fun () ->
                run_batch i r op sector ws))
          (into_batches i works)
      end;
      if (not i.dev.stop) && not (Ring.final_check_for_requests r.ring) then
        Split.wait i.dev r.rwake;
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Telemetry: per-vbd instruments and ring-stall probes (aggregate and
   per ring).                                                          *)
(* ------------------------------------------------------------------ *)

let attach_metrics i =
  match i.dev.ctx.Xen_ctx.metrics with
  | None -> ()
  | Some r ->
      let module R = Kite_metrics.Registry in
      let vbd = i.dev.name in
      let l = [ ("vbd", vbd); ("side", "backend") ] in
      R.counter_fn r "kite_blk_requests_total" ~help:"Ring requests completed"
        l
        (fun () -> i.requests);
      R.counter_fn r "kite_blk_segments_total" ~help:"Segments transferred" l
        (fun () -> i.segments);
      R.counter_fn r "kite_blk_device_ops_total"
        ~help:"Physical device operations (after batch merging)" l
        (fun () -> i.device_ops);
      R.counter_fn r "kite_blk_io_retries_total"
        ~help:"Transient device errors retried" l
        (fun () -> i.io_retries);
      R.counter_fn r "kite_blk_indirect_requests_total"
        ~help:"Requests using indirect descriptors" l
        (fun () -> i.indirect_reqs);
      Split.guard_metrics r i.dev l;
      R.gauge_fn r "kite_blk_inflight"
        ~help:"Requests prepared but not yet completed"
        [ ("vbd", vbd) ]
        (fun () -> float_of_int i.inflight);
      R.gauge_fn r "kite_blk_persistent_grants"
        ~help:"Grants held mapped across requests"
        [ ("vbd", vbd) ]
        (fun () -> float_of_int (Int_table.length i.pmap));
      let sum f =
        Array.fold_left (fun acc q -> acc + f q) 0 i.rings |> float_of_int
      in
      R.gauge_fn r "kite_blk_ring_pending" ~help:"Unconsumed ring requests" l
        (fun () -> sum (fun q -> Ring.pending_requests q.ring));
      R.gauge_fn r "kite_blk_ring_free" ~help:"Free request slots" l
        (fun () -> sum (fun q -> Ring.free_requests q.ring));
      R.probe r ~name:"kite_blk_ring_stalled" [ ("vbd", vbd) ]
        (R.stalled_probe
           ~pending:(fun () ->
             if i.dev.stop then 0
             else
               Array.fold_left
                 (fun acc q -> acc + Ring.pending_requests q.ring)
                 0 i.rings)
           ~progress:(fun () -> i.requests)
           ());
      if i.dev.mq then
        Array.iter
          (fun q ->
            let ql = [ ("vbd", vbd); ("queue", string_of_int q.rid) ] in
            R.counter_fn r "kite_blk_queue_requests_total"
              ~help:"Ring requests completed on this queue" ql
              (fun () -> q.r_requests);
            R.gauge_fn r "kite_blk_ring_pending"
              ~help:"Unconsumed ring requests"
              (("side", "backend") :: ql)
              (fun () -> float_of_int (Ring.pending_requests q.ring));
            R.probe r ~name:"kite_blk_ring_stalled" ql
              (R.stalled_probe
                 ~pending:(fun () ->
                   if i.dev.stop then 0 else Ring.pending_requests q.ring)
                 ~progress:(fun () -> q.r_requests)
                 ()))
          i.rings

let make_instance ~device ~feature_persistent ~feature_indirect ~batching
    (dev : Split.dev) =
  let ctx = dev.ctx and domain = dev.domain in
  let xb = ctx.Xen_ctx.xb in
  (* Advertise properties (§4.4 initialization). *)
  Xenbus.write xb domain ~path:(dev.bpath ^ "/sectors")
    (string_of_int (Kite_devices.Nvme.capacity_sectors device));
  Xenbus.write xb domain ~path:(dev.bpath ^ "/sector-size")
    (string_of_int sector_size);
  Xenbus.write xb domain ~path:(dev.bpath ^ "/feature-flush-cache") "1";
  Xenbus.write xb domain ~path:(dev.bpath ^ "/feature-persistent")
    (if feature_persistent then "1" else "0");
  Xenbus.write xb domain
    ~path:(dev.bpath ^ "/feature-max-indirect-segments")
    (string_of_int
       (if feature_indirect then Blkif.max_indirect_segments else 0));
  Split.advertise dev;
  let front_persistent =
    Xenbus.read xb domain ~path:(dev.fpath ^ "/feature-persistent") = Some "1"
  in
  let nq = Split.num_queues dev in
  let reg = ctx.Xen_ctx.blkrings in
  let rings =
    Array.init nq (fun rid ->
        let ring_ref = Split.want dev rid "ring-ref" in
        let rport = Split.want dev rid "event-channel" in
        Split.own_ring dev reg ~kind:"" ring_ref;
        let ring =
          Split.map_ring dev (Blkif.map reg) ~what:"a blk ring" ring_ref
        in
        {
          rid;
          ring;
          rport;
          rwake = Condition.create ~label:"blkback ring" ();
          r_requests = 0;
          spurious = 0;
        })
  in
  Split.map_rings dev ~pages:nq;
  Array.iter (fun r -> Split.bind dev r.rport) rings;
  let pmap = Int_table.create 64 in
  let i =
    {
      dev;
      device;
      rings;
      persistent = feature_persistent && front_persistent;
      batching;
      pmap;
      marks = Bytes.empty;
      requests = 0;
      segments = 0;
      device_ops = 0;
      io_retries = 0;
      indirect_reqs = 0;
      inflight = 0;
      req_ids = Int_table.create 64;
      io_name =
        Printf.sprintf "blkback-io-%d.%d" dev.frontend.Domain.id dev.devid;
    }
  in
  Array.iter
    (fun r ->
      Event_channel.set_handler ctx.Xen_ctx.ec r.rport domain (fun () ->
          Condition.signal r.rwake))
    rings;
  (* Detach unmaps the whole persistent-reference table (the real
     driver's gnttab_unmap sweep on disconnect) before closing the
     channels; a crash leaves the revocation to the hypervisor. *)
  Split.connect dev
    ~detach:(fun () ->
      Array.iter (fun r -> Condition.broadcast r.rwake) rings;
      let kept = Int_table.fold (fun _ e acc -> e :: acc) pmap [] in
      Int_table.reset pmap;
      i.marks <- Bytes.empty;
      Grant_table.unmap_many ctx.Xen_ctx.gt ~grantee:domain
        (Array.of_list kept);
      Array.iter (fun r -> Event_channel.close ctx.Xen_ctx.ec r.rport) rings)
    ~crash:(fun () ->
      Int_table.reset pmap;
      i.marks <- Bytes.empty;
      Array.iter (fun r -> Condition.broadcast r.rwake) rings);
  attach_metrics i;
  Array.iter (fun r -> Split.spawn_worker dev "req" r.rid (request_thread i r))
    rings;
  i

let serve ctx ~domain ~overheads ~device ?(feature_persistent = true)
    ?(feature_indirect = true) ?(batching = true) ?(max_queues = 8) () =
  Split.serve ctx ~domain ~overheads ~drv:"blkback" ~ty:"vbd" ~max_queues
    ~make:
      (make_instance ~device ~feature_persistent ~feature_indirect ~batching)
    ~dev_of:(fun i -> i.dev)

let stop = Split.stop
let crash = Split.crash
