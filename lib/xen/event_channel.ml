open Kite_sim

exception Evtchn_error of string

type side = {
  domid : int;
  mutable handler : (unit -> unit) option;
  mutable pending : bool;
}

type channel = {
  port : int;
  a : side;  (* allocator *)
  mutable b : side option;  (* bound remote *)
  remote_domid : int;  (* who may bind *)
  mutable closed : bool;
}

type port = int

type t = {
  hv : Hypervisor.t;
  channels : channel Int_table.t;
  mutable next_port : int;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable fault : Kite_fault.Fault.t option;
  mutable race : Kite_race.Race.t option;
}

let create hv =
  {
    hv;
    channels = Int_table.create 16;
    next_port = 1;
    sent = 0;
    delivered = 0;
    dropped = 0;
    fault = None;
    race = None;
  }

let set_fault t f = t.fault <- f
let set_race t r = t.race <- r

let alloc_unbound t dom ~remote =
  let port = t.next_port in
  t.next_port <- t.next_port + 1;
  let ch =
    {
      port;
      a = { domid = dom.Domain.id; handler = None; pending = false };
      b = None;
      remote_domid = remote.Domain.id;
      closed = false;
    }
  in
  Int_table.add t.channels port ch;
  port

let get t port =
  match Int_table.find t.channels port with
  | ch when not ch.closed -> ch
  | _ -> raise (Evtchn_error (Printf.sprintf "port %d is closed" port))
  | exception Not_found ->
      raise (Evtchn_error (Printf.sprintf "no such port %d" port))

let bind t port dom =
  let ch = get t port in
  if ch.b <> None then
    raise (Evtchn_error (Printf.sprintf "port %d already bound" port));
  if dom.Domain.id <> ch.remote_domid then
    raise
      (Evtchn_error
         (Printf.sprintf "port %d is reserved for domain %d" port
            ch.remote_domid));
  ch.b <- Some { domid = dom.Domain.id; handler = None; pending = false }

let side_of ch domid =
  if ch.a.domid = domid then Some ch.a
  else
    match ch.b with
    | Some s when s.domid = domid -> Some s
    | Some _ | None -> None

let set_handler t port dom f =
  let ch = get t port in
  match side_of ch dom.Domain.id with
  | Some s -> s.handler <- Some f
  | None ->
      raise
        (Evtchn_error
           (Printf.sprintf "domain %d not an endpoint of port %d"
              dom.Domain.id port))

let peer_of ch domid =
  if ch.a.domid = domid then ch.b
  else
    match ch.b with
    | Some s when s.domid = domid -> Some ch.a
    | Some _ | None -> None

let notify t port ~from =
  let ch = get t port in
  (match side_of ch from.Domain.id with
  | Some _ -> ()
  | None ->
      raise
        (Evtchn_error
           (Printf.sprintf "domain %d not an endpoint of port %d"
              from.Domain.id port)));
  Hypervisor.hypercall t.hv from Hypervisor.Evtchn_send
    ~extra:(Hypervisor.costs t.hv).Costs.evtchn_send;
  (match Hypervisor.trace t.hv with
  | Some tr ->
      Kite_trace.Trace.evtchn_send tr
        ~at:(Hypervisor.now t.hv)
        ~domain:from.Domain.name ~port
  | None -> ());
  t.sent <- t.sent + 1;
  match t.fault with
  | Some f
    when Kite_fault.Fault.fire f Kite_fault.Fault.Evtchn_notify
           ~key:(string_of_int port) ->
      (* Injected notification loss: the sender has paid the hypercall
         but the peer's pending bit is never set.  Consumers recover via
         their re-arm/watchdog paths. *)
      t.dropped <- t.dropped + 1
  | _ -> (
  match peer_of ch from.Domain.id with
  | None -> ()  (* not yet bound: event is lost, as in Xen *)
  | Some peer ->
      (* Notify-to-deliver happens-before edge: the handler (and whatever
         it wakes) is ordered after everything the sender published.  A
         dropped notification above establishes no edge — recovery paths
         must build their own ordering, which is exactly what the
         detector then audits. *)
      (match t.race with
      | Some r ->
          Kite_race.Race.hb_release r ~chan:("evtchn:" ^ string_of_int port)
      | None -> ());
      if not peer.pending then begin
        peer.pending <- true;
        let latency = (Hypervisor.costs t.hv).Costs.interrupt_latency in
        ignore
          (Engine.schedule_after (Hypervisor.engine t.hv) latency (fun () ->
               peer.pending <- false;
               if not ch.closed then begin
                 t.delivered <- t.delivered + 1;
                 (match Hypervisor.trace t.hv with
                 | Some tr ->
                     let domain =
                       match Hypervisor.find_domain t.hv peer.domid with
                       | Some d -> d.Domain.name
                       | None -> Printf.sprintf "dom%d" peer.domid
                     in
                     Kite_trace.Trace.evtchn_deliver tr
                       ~at:(Hypervisor.now t.hv) ~domain ~port
                 | None -> ());
                 let invoke () =
                   match peer.handler with Some f -> f () | None -> ()
                 in
                 match t.race with
                 | Some r ->
                     (* The delivery runs in interrupt context, not a
                        process: acquire the notify edge into the ambient
                        scope so conditions signalled by the handler relay
                        the sender's clock to the processes they wake. *)
                     Kite_race.Race.irq_enter r;
                     Kite_race.Race.hb_acquire r
                       ~chan:("evtchn:" ^ string_of_int port);
                     Fun.protect
                       ~finally:(fun () -> Kite_race.Race.irq_leave r)
                       invoke
                 | None -> invoke ()
               end))
      end)

let close t port =
  match Int_table.find_opt t.channels port with
  | Some ch -> ch.closed <- true
  | None -> ()

let close_domain t ~domid =
  (* Domain destruction: every channel with the dead domain as an actual
     endpoint is torn down, exactly as the hypervisor does on
     domain_destroy.  Unbound channels merely *reserved* for the dead
     domain stay open — their owner closes them during reconnect. *)
  Int_table.iter
    (fun _ ch ->
      let endpoint =
        ch.a.domid = domid
        || match ch.b with Some s -> s.domid = domid | None -> false
      in
      if endpoint then ch.closed <- true)
    t.channels

let is_connected t port =
  match Int_table.find_opt t.channels port with
  | Some ch -> (not ch.closed) && ch.b <> None
  | None -> false

let notifications_sent t = t.sent
let notifications_delivered t = t.delivered
let notifications_dropped t = t.dropped
