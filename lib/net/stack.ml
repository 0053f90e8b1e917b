open Kite_sim

exception Network_unreachable of string
exception Host_unreachable of string

type udp_socket = {
  port : int;
  incoming : (Ipv4addr.t * int * Bytes.t) Mailbox.t;
}

(* A partially reassembled datagram: fragments received so far (slices
   of their frames), and the total length once the final (MF=0) fragment
   has arrived. *)
type reasm = {
  mutable frags : (int * Wire.slice) list;
  mutable total : int option;
}

(* One ARP entry per address: the learnt MAC once one is known, and the
   condition that resolvers of the address wait on, made by the first
   one that missed. *)
type arp_entry = {
  mutable arp_mac : Macaddr.t;
  mutable known : bool;
  mutable waiters : Condition.t option;
}

type ping_waiter = {
  id : int;
  seq : int;
  mutable reply_at : Time.t option;
  cond : Condition.t;
}

type t = {
  sched : Process.sched;
  name : string;
  dev : Netdev.t;
  mac : Macaddr.t;
  mutable ip : Ipv4addr.t;
  netmask : Ipv4addr.t;
  gateway : Ipv4addr.t option;
  rx_cost : Time.span;
  rxq : Bytes.t Mailbox.t;
  arp : arp_entry Ipv4addr.Table.t;
  udp_socks : udp_socket Int_table.t;
  mutable pings : ping_waiter list;
  mutable tcp_handler : (Ipv4.header -> Wire.slice -> unit) option;
  (* Reassembly buffers keyed by [reasm_key] (source, datagram id). *)
  reassembly : reasm Int_table.t;
  mutable tx_packets : int;
  mutable next_ping_id : int;
  mutable next_ip_id : int;
}

let sched t = t.sched
let name t = t.name
let mac t = t.mac
let ip t = t.ip
let set_ip t ip = t.ip <- ip
let dev t = t.dev
let arp_cache_size t =
  Ipv4addr.Table.fold (fun _ e n -> if e.known then n + 1 else n) t.arp 0
let tx_packets t = t.tx_packets
let set_tcp_handler t f = t.tcp_handler <- Some f

let transmit t frame =
  t.tx_packets <- t.tx_packets + 1;
  Netdev.transmit t.dev frame

let emit t ~dst_mac ~ethertype payload =
  transmit t
    (Ethernet.encode { Ethernet.dst = dst_mac; src = t.mac; ethertype } ~payload)

(* ------------------------------------------------------------------ *)
(* ARP                                                                 *)
(* ------------------------------------------------------------------ *)

let arp_learn t ip mac =
  if not (Ipv4addr.equal ip Ipv4addr.any) then
    match Ipv4addr.Table.find t.arp ip with
    | e -> (
        e.arp_mac <- mac;
        e.known <- true;
        match e.waiters with Some c -> Condition.broadcast c | None -> ())
    | exception Not_found ->
        Ipv4addr.Table.add t.arp ip
          { arp_mac = mac; known = true; waiters = None }

let send_arp_request t target_ip =
  let pkt = Arp.request ~sender_mac:t.mac ~sender_ip:t.ip ~target_ip in
  emit t ~dst_mac:Macaddr.broadcast ~ethertype:Ethernet.Arp (Arp.encode pkt)

let resolve t dst =
  let e =
    match Ipv4addr.Table.find t.arp dst with
    | e -> e
    | exception Not_found ->
        let e =
          { arp_mac = Macaddr.broadcast; known = false; waiters = None }
        in
        Ipv4addr.Table.add t.arp dst e;
        e
  in
  if e.known then e.arp_mac
  else
    let cond =
      match e.waiters with
      | Some c -> c
      | None ->
          let c = Condition.create () in
          e.waiters <- Some c;
          c
    in
    let rec attempt n =
      if n = 0 then
        raise
          (Host_unreachable
             (Printf.sprintf "%s: no ARP reply from %s" t.name
                (Ipv4addr.to_string dst)))
      else begin
        send_arp_request t dst;
        match Condition.timed_wait cond (Time.sec 1) with
        | `Signaled | `Timeout ->
            if e.known then e.arp_mac else attempt (n - 1)
      end
    in
    attempt 3

(* ------------------------------------------------------------------ *)
(* Transmit paths                                                      *)
(* ------------------------------------------------------------------ *)

let next_hop t dst =
  if Ipv4addr.same_subnet dst t.ip ~netmask:t.netmask then dst
  else
    match t.gateway with
    | Some gw -> gw
    | None ->
        raise
          (Network_unreachable
             (Printf.sprintf "%s: no route to %s" t.name
                (Ipv4addr.to_string dst)))

(* Each frame is built in one buffer: the Ethernet and IPv4 headers are
   written in place and the IP payload -- the transport header [hdr]
   followed by [body] -- is copied straight from the caller's buffers, so
   every payload byte is copied once, into the frame that carries it. *)
let send_ip t ~dst ~protocol ?(hdr = Bytes.empty) body =
  let dst_mac =
    if Ipv4addr.equal dst Ipv4addr.broadcast then Macaddr.broadcast
    else resolve t (next_hop t dst)
  in
  let eth = { Ethernet.dst = dst_mac; src = t.mac; ethertype = Ethernet.Ipv4 } in
  let hdr_len = Bytes.length hdr in
  let total = hdr_len + Bytes.length body in
  (* One frame carrying bytes [off, off + len) of the IP payload. *)
  let frame h ~off ~len =
    let at = Ethernet.header_size + Ipv4.header_size in
    let f = Bytes.create (at + len) in
    Ethernet.write_header f eth;
    Ipv4.write_header f ~off:Ethernet.header_size h
      ~len:(Ipv4.header_size + len);
    let from_hdr = max 0 (min len (hdr_len - off)) in
    if from_hdr > 0 then Bytes.blit hdr off f at from_hdr;
    if len > from_hdr then
      Bytes.blit body (off + from_hdr - hdr_len) f (at + from_hdr)
        (len - from_hdr);
    transmit t f
  in
  let base = Ipv4.make_header ~src:t.ip ~dst ~protocol ~ttl:64 in
  let max_payload = Netdev.mtu t.dev - Ipv4.header_size in
  if total <= max_payload then frame base ~off:0 ~len:total
  else begin
    (* Fragment: all pieces but the last carry an 8-byte-aligned payload
       and the MF flag; all share a fresh identification. *)
    let id = t.next_ip_id in
    t.next_ip_id <- (t.next_ip_id + 1) land 0xffff;
    let chunk = max_payload / 8 * 8 in
    let rec send_frag off =
      if off < total then begin
        let len = min chunk (total - off) in
        let last = off + len >= total in
        frame
          { base with Ipv4.id; more_fragments = not last; frag_offset = off }
          ~off ~len;
        send_frag (off + len)
      end
    in
    send_frag 0
  end

(* ------------------------------------------------------------------ *)
(* UDP                                                                 *)
(* ------------------------------------------------------------------ *)

let udp_bind t ~port =
  if Int_table.mem t.udp_socks port then
    invalid_arg (Printf.sprintf "Stack.udp_bind: port %d in use" port);
  let sock = { port; incoming = Mailbox.create () } in
  Int_table.add t.udp_socks port sock;
  sock

let udp_send t sock ~dst ~dst_port payload =
  let hdr =
    Udp.header { Udp.src_port = sock.port; dst_port } ~src:t.ip ~dst ~payload
  in
  send_ip t ~dst ~protocol:Ipv4.Udp ~hdr payload

let udp_recv sock = Mailbox.recv sock.incoming
let udp_recv_timeout sock span = Mailbox.recv_timeout sock.incoming span

(* ------------------------------------------------------------------ *)
(* ICMP                                                                *)
(* ------------------------------------------------------------------ *)

let ping t ~dst ?(timeout = Time.sec 1) ~seq () =
  let id = t.next_ping_id in
  t.next_ping_id <- t.next_ping_id + 1;
  let w = { id; seq; reply_at = None; cond = Condition.create () } in
  t.pings <- w :: t.pings;
  let start = Engine.now (Process.engine t.sched) in
  let payload = Bytes.make 56 'p' in
  (* An unreachable host simply never answers. *)
  (try
     send_ip t ~dst ~protocol:Ipv4.Icmp
       (Icmp.encode (Icmp.Echo_request { Icmp.id; seq; payload }))
   with Host_unreachable _ -> ());
  let result =
    match w.reply_at with
    | Some at -> Some (at - start)
    | None -> (
        match Condition.timed_wait w.cond timeout with
        | `Signaled | `Timeout -> (
            match w.reply_at with Some at -> Some (at - start) | None -> None))
  in
  t.pings <- List.filter (fun p -> p != w) t.pings;
  result

(* ------------------------------------------------------------------ *)
(* Receive path                                                        *)
(* ------------------------------------------------------------------ *)

let handle_arp t payload =
  match Arp.decode payload with
  | None -> ()
  | Some pkt ->
      arp_learn t pkt.Arp.sender_ip pkt.Arp.sender_mac;
      if
        pkt.Arp.op = Arp.Request
        && Ipv4addr.equal pkt.Arp.target_ip t.ip
        && not (Ipv4addr.equal t.ip Ipv4addr.any)
      then
        emit t ~dst_mac:pkt.Arp.sender_mac ~ethertype:Ethernet.Arp
          (Arp.encode (Arp.reply_to pkt ~my_mac:t.mac))

let handle_icmp t (h : Ipv4.header) payload =
  match Icmp.decode payload with
  | Some (Icmp.Echo_request e) ->
      send_ip t ~dst:h.Ipv4.src ~protocol:Ipv4.Icmp
        (Icmp.encode (Icmp.Echo_reply e))
  | Some (Icmp.Echo_reply e) ->
      List.iter
        (fun w ->
          if w.id = e.Icmp.id && w.seq = e.Icmp.seq && w.reply_at = None then begin
            w.reply_at <- Some (Engine.now (Process.engine t.sched));
            Condition.broadcast w.cond
          end)
        t.pings
  | None -> ()

let handle_udp t (h : Ipv4.header) iov =
  match Udp.decode iov ~src:h.Ipv4.src ~dst:h.Ipv4.dst with
  | None -> ()
  | Some (uh, data) -> (
      match Int_table.find t.udp_socks uh.Udp.dst_port with
      | sock -> Mailbox.send sock.incoming (h.Ipv4.src, uh.Udp.src_port, data)
      | exception Not_found -> ())

(* Collect fragments; deliver the whole datagram once every byte from 0
   through the final fragment's end has arrived, as its fragments' slices
   in offset order: the transport gathers them in its one copy.  Stale
   partial datagrams are overwritten when their (source, id) pair is
   reused. *)
let reasm_key (h : Ipv4.header) =
  (Ipv4addr.to_int h.Ipv4.src lsl 16) lor h.Ipv4.id

let reassemble t (h : Ipv4.header) (body : Wire.slice) =
  if not (Ipv4.is_fragment h) then Some [ body ]
  else begin
    let key = reasm_key h in
    let r =
      match Int_table.find t.reassembly key with
      | r -> r
      | exception Not_found ->
          let r = { frags = []; total = None } in
          Int_table.add t.reassembly key r;
          r
    in
    r.frags <- (h.Ipv4.frag_offset, body) :: r.frags;
    if not h.Ipv4.more_fragments then
      r.total <- Some (h.Ipv4.frag_offset + body.Wire.len);
    match r.total with
    | None -> None
    | Some total ->
        (* Overlapping fragments never pass the contiguity check, so the
           order among equal offsets only matters for empty ones, which
           go first. *)
        let sorted =
          List.sort
            (fun (a, (x : Wire.slice)) (b, (y : Wire.slice)) ->
              match Int.compare a b with
              | 0 -> Int.compare x.Wire.len y.Wire.len
              | c -> c)
            r.frags
        in
        let rec contiguous expect = function
          | [] -> expect = total
          | (off, (s : Wire.slice)) :: rest ->
              off = expect && contiguous (off + s.Wire.len) rest
        in
        if contiguous 0 sorted then begin
          Int_table.remove t.reassembly key;
          Some (List.map snd sorted)
        end
        else None
  end

let for_us t (h : Ipv4.header) =
  Ipv4addr.equal h.Ipv4.dst t.ip
  || Ipv4addr.equal h.Ipv4.dst Ipv4addr.broadcast
  || Ipv4addr.equal t.ip Ipv4addr.any

let handle_frame t frame =
  match Ethernet.decode frame with
  | None -> ()
  | Some (eh, payload) -> (
      match eh.Ethernet.ethertype with
      | Ethernet.Arp -> handle_arp t payload
      | Ethernet.Ipv4 -> (
          match Ipv4.decode payload with
          | None -> ()
          | Some (ih, body) ->
              if for_us t ih then begin
                (* Opportunistically learn the sender's MAC so replies do
                   not need a blocking ARP exchange in the rx loop. *)
                arp_learn t ih.Ipv4.src eh.Ethernet.src;
                match reassemble t ih body with
                | None -> ()  (* incomplete datagram *)
                | Some iov -> (
                    match ih.Ipv4.protocol with
                    | Ipv4.Icmp -> handle_icmp t ih (Wire.concat iov)
                    | Ipv4.Udp -> handle_udp t ih iov
                    | Ipv4.Tcp -> (
                        match t.tcp_handler with
                        | Some f -> f ih (Wire.concat iov)
                        | None -> ())
                    | Ipv4.Other_proto _ -> ())
              end)
      | Ethernet.Other _ -> ())

let rx_loop t () =
  let rec loop () =
    let frame = Mailbox.recv t.rxq in
    if t.rx_cost > 0 then Process.sleep t.rx_cost;
    handle_frame t frame;
    loop ()
  in
  loop ()

let create sched ~name ~dev ~mac ~ip ~netmask ?gateway ?(rx_cost = 0) () =
  let t =
    {
      sched;
      name;
      dev;
      mac;
      ip;
      netmask;
      gateway;
      rx_cost;
      rxq = Mailbox.create ();
      arp = Ipv4addr.Table.create 16;
      udp_socks = Int_table.create 8;
      pings = [];
      tcp_handler = None;
      reassembly = Int_table.create 8;
      tx_packets = 0;
      next_ping_id = 1;
      next_ip_id = 1;
    }
  in
  Netdev.set_rx dev (fun frame -> Mailbox.send t.rxq frame);
  Netdev.set_up dev true;
  Process.spawn sched ~daemon:true ~name:(name ^ "-rx") (rx_loop t);
  t
