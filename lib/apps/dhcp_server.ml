open Kite_sim
open Kite_net

type t = {
  server_ip : Ipv4addr.t;
  pool_start : int32;
  pool_size : int;
  cpu_per_message : Time.span;
  leases : (string, int) Hashtbl.t;  (* client MAC -> pool offset *)
  mutable next_offset : int;
  mutable offers : int;
  mutable acks : int;
  mutable naks : int;
}

(* Every lease lasts an hour. *)
let lease_time = 3600l

let ip_of_offset t off =
  Ipv4addr.of_int32 (Int32.add t.pool_start (Int32.of_int off))

let allocate t mac =
  match Hashtbl.find_opt t.leases mac with
  | Some off -> Some (ip_of_offset t off)
  | None ->
      if Hashtbl.length t.leases >= t.pool_size then None
      else begin
        let off = t.next_offset in
        t.next_offset <- (t.next_offset + 1) mod t.pool_size;
        Hashtbl.replace t.leases mac off;
        Some (ip_of_offset t off)
      end

let serve t stack sock () =
  let rec loop () =
    let src, sport, payload = Stack.udp_recv sock in
    if t.cpu_per_message > 0 then Process.sleep t.cpu_per_message;
    (match Dhcp_wire.decode payload with
    | Some msg -> (
        let mac = Macaddr.to_string msg.Dhcp_wire.chaddr in
        let send reply =
          (* Clients without an address yet are reached via broadcast. *)
          let dst =
            if Ipv4addr.equal src Ipv4addr.any then Ipv4addr.broadcast else src
          in
          let dport =
            if sport = 0 then Dhcp_wire.client_port else sport
          in
          Stack.udp_send stack sock ~dst ~dst_port:dport
            (Dhcp_wire.encode reply)
        in
        match msg.Dhcp_wire.message_type with
        | Dhcp_wire.Discover -> (
            match allocate t mac with
            | Some ip ->
                t.offers <- t.offers + 1;
                send
                  (Dhcp_wire.make ~op:`Boot_reply ~xid:msg.Dhcp_wire.xid
                     ~chaddr:msg.Dhcp_wire.chaddr
                     ~message_type:Dhcp_wire.Offer ~yiaddr:ip
                     ~siaddr:t.server_ip ~server_id:t.server_ip
                     ~lease_time ())
            | None -> ())
        | Dhcp_wire.Request -> (
            let requested =
              match msg.Dhcp_wire.requested_ip with
              | Some ip -> Some ip
              | None ->
                  if Ipv4addr.equal msg.Dhcp_wire.ciaddr Ipv4addr.any then None
                  else Some msg.Dhcp_wire.ciaddr
            in
            let granted = allocate t mac in
            match (requested, granted) with
            | Some want, Some got when Ipv4addr.equal want got ->
                t.acks <- t.acks + 1;
                send
                  (Dhcp_wire.make ~op:`Boot_reply ~xid:msg.Dhcp_wire.xid
                     ~chaddr:msg.Dhcp_wire.chaddr ~message_type:Dhcp_wire.Ack
                     ~yiaddr:got ~siaddr:t.server_ip ~server_id:t.server_ip
                     ~lease_time ())
            | _ ->
                t.naks <- t.naks + 1;
                send
                  (Dhcp_wire.make ~op:`Boot_reply ~xid:msg.Dhcp_wire.xid
                     ~chaddr:msg.Dhcp_wire.chaddr ~message_type:Dhcp_wire.Nak
                     ~server_id:t.server_ip ()))
        | Dhcp_wire.Release ->
            Hashtbl.remove t.leases mac
        | Dhcp_wire.Offer | Dhcp_wire.Ack | Dhcp_wire.Nak -> ())
    | None -> ());
    loop ()
  in
  loop ()

let start stack ~sched ~server_ip ~pool_start ~pool_size
    ?(cpu_per_message = Time.us 25) () =
  let t =
    {
      server_ip;
      pool_start = Ipv4addr.to_int32 pool_start;
      pool_size;
      cpu_per_message;
      leases = Hashtbl.create 64;
      next_offset = 0;
      offers = 0;
      acks = 0;
      naks = 0;
    }
  in
  let sock = Stack.udp_bind stack ~port:Dhcp_wire.server_port in
  Process.spawn sched ~daemon:true ~name:"dhcpd" (serve t stack sock);
  t

let offers t = t.offers
let acks t = t.acks
let naks t = t.naks
let active_leases t = Hashtbl.length t.leases
