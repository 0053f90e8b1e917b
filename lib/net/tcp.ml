open Kite_sim

exception Connection_refused of string
exception Connection_closed of string

let mss = 1460
let rcv_window = 256 * 1024
let sndbuf_max = 512 * 1024
let rto = Time.ms 10
let connect_timeout = Time.sec 5

(* Byte FIFO of slices.  Appending shares the caller's buffer, and a
   take that ends inside a chunk re-slices it rather than copying the
   rest, so received segments reach the application in one copy. *)
module Bytebuf = struct
  type t = {
    mutable front : Wire.slice list;  (* oldest first *)
    mutable back : Wire.slice list;  (* newest first *)
    mutable len : int;
  }

  let create () = { front = []; back = []; len = 0 }
  let length b = b.len

  let append b (s : Wire.slice) =
    if s.Wire.len > 0 then begin
      b.back <- s :: b.back;
      b.len <- b.len + s.Wire.len
    end

  (* Remove the first [n] bytes (n <= len), copying them into [out] when
     one is given. *)
  let consume b n out =
    if n > b.len then invalid_arg "Bytebuf.take";
    let filled = ref 0 in
    while !filled < n do
      if b.front = [] then begin
        b.front <- List.rev b.back;
        b.back <- []
      end;
      match b.front with
      | [] -> assert false
      | (s : Wire.slice) :: rest ->
          let k = min s.Wire.len (n - !filled) in
          (match out with
          | Some out -> Bytes.blit s.Wire.buf s.Wire.off out !filled k
          | None -> ());
          filled := !filled + k;
          b.front <- (if k = s.Wire.len then rest else Wire.shift s k :: rest)
    done;
    b.len <- b.len - n

  let take b n =
    let out = Bytes.create n in
    consume b n (Some out);
    out

  let drop b n = consume b n None

  (* Copy without removing: bytes [0, n) of the FIFO. *)
  let peek b n =
    if n > b.len then invalid_arg "Bytebuf.peek";
    Wire.gather (b.front @ List.rev b.back) ~off:0 ~len:n

  (* Offset of the first [c] queued.  The search moves every chunk to
     [front] first, so it reads the FIFO in order. *)
  let index b c =
    if b.back <> [] then begin
      b.front <- b.front @ List.rev b.back;
      b.back <- []
    end;
    Wire.index b.front c
end

(* Connections by (local port, remote address, remote port): a
   monomorphic table whose hash mixes the three fields, so demux calls
   neither the generic hash nor the polymorphic compare. *)
module Conns = Hashtbl.Make (struct
  type t = int * Ipv4addr.t * int

  let equal (lp, ip, rp) (lp', ip', rp') =
    lp = lp' && rp = rp' && Ipv4addr.equal ip ip'

  let hash (lp, ip, rp) =
    (((Ipv4addr.to_int ip * 65599) + lp) * 65599) + rp
end)

type conn_state =
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait  (* we sent FIN first *)
  | Close_wait  (* peer sent FIN first *)
  | Last_ack  (* peer closed, then we sent FIN *)
  | Closed

type conn = {
  tcp : t;
  local_port : int;
  remote_ip : Ipv4addr.t;
  remote_port : int;
  iss : int;
  mutable state : conn_state;
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable rcv_nxt : int;
  mutable peer_window : int;
  mutable cwnd : int;
  mutable ssthresh : int;
  unacked : Bytebuf.t;  (* sent, not yet acknowledged; starts at snd_una *)
  sndbuf : Bytebuf.t;  (* queued, not yet sent *)
  rcvbuf : Bytebuf.t;
  mutable rcv_fin : bool;  (* peer FIN consumed *)
  mutable fin_requested : bool;
  mutable fin_sent : bool;
  tx_cond : Condition.t;  (* sender work / buffer space *)
  rx_cond : Condition.t;  (* received data / EOF *)
  hs_cond : Condition.t;  (* handshake completion *)
  mutable retx_timer : Engine.handle option;
  mutable retx_gen : int;
  mutable dup_acks : int;
}

and listener = { lport : int; backlog : conn Mailbox.t }

and t = {
  stack : Stack.t;
  conns : conn Conns.t;
  listeners : listener Int_table.t;
  mutable next_iss : int;
  mutable next_ephemeral : int;
  mutable retransmissions : int;
}

let retransmissions t = t.retransmissions

let state_name c =
  match c.state with
  | Syn_sent -> "SYN_SENT"
  | Syn_received -> "SYN_RECEIVED"
  | Established -> "ESTABLISHED"
  | Fin_wait -> "FIN_WAIT"
  | Close_wait -> "CLOSE_WAIT"
  | Last_ack -> "LAST_ACK"
  | Closed -> "CLOSED"

let is_open c = c.state <> Closed

let key c = (c.local_port, c.remote_ip, c.remote_port)

let seq_sub a b =
  (* Distance a - b for close sequence numbers. *)
  let d = (a - b) land 0xffffffff in
  if d >= 1 lsl 31 then d - (1 lsl 32) else d

let send_segment c ?(payload = Bytes.empty) flags ~seq =
  let hdr =
    {
      Tcp_wire.src_port = c.local_port;
      dst_port = c.remote_port;
      seq;
      ack_num = c.rcv_nxt;
      flags;
      window = rcv_window;
    }
  in
  Stack.send_ip c.tcp.stack ~dst:c.remote_ip ~protocol:Ipv4.Tcp
    ~hdr:(Tcp_wire.header hdr ~src:(Stack.ip c.tcp.stack) ~dst:c.remote_ip ~payload)
    payload

let ack_flags = { Tcp_wire.no_flags with ack = true }

let send_ack c = send_segment c ack_flags ~seq:c.snd_nxt

(* ------------------------------------------------------------------ *)
(* Retransmission                                                      *)
(* ------------------------------------------------------------------ *)

let in_flight c = seq_sub c.snd_nxt c.snd_una

let cancel_timer c =
  c.retx_gen <- c.retx_gen + 1;
  match c.retx_timer with
  | Some h ->
      Engine.cancel h;
      c.retx_timer <- None
  | None -> ()

let rec arm_timer c =
  cancel_timer c;
  let sched = Stack.sched c.tcp.stack in
  let engine = Process.engine sched in
  (* The timer fires in event context; the retransmit itself runs in a
     short-lived process so it may block (e.g. on a cold ARP cache). *)
  let gen = c.retx_gen in
  c.retx_timer <-
    Some
      (Engine.schedule_after engine rto (fun () ->
           Process.spawn sched ~name:"tcp-rto" (fun () -> on_rto c gen)))

and on_rto c gen =
  (* A stale timer (cancelled or re-armed since it was scheduled) must not
     trigger a spurious retransmission. *)
  if gen = c.retx_gen && c.state <> Closed && in_flight c > 0 then begin
    c.retx_timer <- None;
    c.tcp.retransmissions <- c.tcp.retransmissions + 1;
    (* Multiplicative decrease, then go-back-N from snd_una. *)
    c.ssthresh <- max (2 * mss) (c.cwnd / 2);
    c.cwnd <- mss;
    (match c.state with
    | Syn_sent ->
        send_segment c { Tcp_wire.no_flags with syn = true } ~seq:c.iss
    | Syn_received ->
        send_segment c
          { Tcp_wire.no_flags with syn = true; ack = true }
          ~seq:c.iss
    | Established | Fin_wait | Close_wait | Last_ack ->
        let data_len = Bytebuf.length c.unacked in
        let resend = min data_len (min c.cwnd mss) in
        if resend > 0 then begin
          let data = Bytebuf.peek c.unacked resend in
          send_segment c
            { ack_flags with Tcp_wire.psh = true }
            ~seq:c.snd_una ~payload:data
        end
        else if c.fin_sent then
          send_segment c
            { ack_flags with Tcp_wire.fin = true }
            ~seq:(Tcp_wire.seq_add c.snd_nxt (-1))
    | Closed -> ());
    arm_timer c
  end

(* ------------------------------------------------------------------ *)
(* Sender process                                                      *)
(* ------------------------------------------------------------------ *)

let effective_window c = min c.peer_window (max c.cwnd mss)

let can_transmit_data c =
  (match c.state with
  | Established | Close_wait -> true
  | Syn_sent | Syn_received | Fin_wait | Last_ack | Closed -> false)
  && Bytebuf.length c.sndbuf > 0
  && in_flight c < effective_window c

let should_send_fin c =
  c.fin_requested && (not c.fin_sent)
  && Bytebuf.length c.sndbuf = 0
  &&
  match c.state with
  | Established | Close_wait -> true
  | Syn_sent | Syn_received | Fin_wait | Last_ack | Closed -> false

let sender c () =
  let rec loop () =
    if c.state = Closed then ()
    else if can_transmit_data c then begin
      let window_room = effective_window c - in_flight c in
      let seg = min (min mss (Bytebuf.length c.sndbuf)) window_room in
      let data = Bytebuf.take c.sndbuf seg in
      Bytebuf.append c.unacked (Wire.of_bytes data);
      let seq = c.snd_nxt in
      c.snd_nxt <- Tcp_wire.seq_add c.snd_nxt seg;
      send_segment c { ack_flags with Tcp_wire.psh = true } ~seq ~payload:data;
      if c.retx_timer = None then arm_timer c;
      (* Space may have opened for blocked writers. *)
      Condition.broadcast c.tx_cond;
      Process.yield ();
      loop ()
    end
    else if should_send_fin c then begin
      let seq = c.snd_nxt in
      c.snd_nxt <- Tcp_wire.seq_add c.snd_nxt 1;
      c.fin_sent <- true;
      c.state <- (if c.state = Close_wait then Last_ack else Fin_wait);
      send_segment c { ack_flags with Tcp_wire.fin = true } ~seq;
      if c.retx_timer = None then arm_timer c;
      loop ()
    end
    else begin
      Condition.wait c.tx_cond;
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Connection construction                                             *)
(* ------------------------------------------------------------------ *)

let make_conn tcp ~local_port ~remote_ip ~remote_port ~state ~iss ~rcv_nxt =
  let c =
    {
      tcp;
      local_port;
      remote_ip;
      remote_port;
      iss;
      state;
      snd_una = iss;
      snd_nxt = iss;
      rcv_nxt;
      peer_window = rcv_window;
      cwnd = 10 * mss;
      ssthresh = 64 * 1024;
      unacked = Bytebuf.create ();
      sndbuf = Bytebuf.create ();
      rcvbuf = Bytebuf.create ();
      rcv_fin = false;
      fin_requested = false;
      fin_sent = false;
      tx_cond = Condition.create ();
      rx_cond = Condition.create ();
      hs_cond = Condition.create ();
      retx_timer = None;
      retx_gen = 0;
      dup_acks = 0;
    }
  in
  Conns.replace tcp.conns (local_port, remote_ip, remote_port) c;
  Process.spawn (Stack.sched tcp.stack) ~daemon:true
    ~name:
      (Printf.sprintf "%s-tcp-%d-%s:%d" (Stack.name tcp.stack) local_port
         (Ipv4addr.to_string remote_ip) remote_port)
    (sender c);
  c

let teardown c =
  c.state <- Closed;
  cancel_timer c;
  Conns.remove c.tcp.conns (key c);
  Condition.broadcast c.tx_cond;
  Condition.broadcast c.rx_cond;
  Condition.broadcast c.hs_cond

(* ------------------------------------------------------------------ *)
(* Segment processing                                                  *)
(* ------------------------------------------------------------------ *)

(* Fast retransmit: three duplicate ACKs resend the lost segment without
   waiting for the RTO, with a gentler (halving) congestion response. *)
let fast_retransmit c =
  c.tcp.retransmissions <- c.tcp.retransmissions + 1;
  c.ssthresh <- max (2 * mss) (c.cwnd / 2);
  c.cwnd <- c.ssthresh;
  let resend = min (Bytebuf.length c.unacked) mss in
  if resend > 0 then begin
    let data = Bytebuf.peek c.unacked resend in
    send_segment c { ack_flags with Tcp_wire.psh = true } ~seq:c.snd_una
      ~payload:data;
    arm_timer c
  end

let process_ack c ~pure ack =
  (* Only pure ACKs (no payload, no SYN/FIN) count towards the duplicate
     threshold: data segments from the peer naturally repeat the same ack
     number while our pipeline is idle in that direction. *)
  if pure && ack = c.snd_una && in_flight c > 0 then begin
    c.dup_acks <- c.dup_acks + 1;
    if c.dup_acks = 3 then fast_retransmit c
  end;
  if Tcp_wire.seq_lt c.snd_una ack && Tcp_wire.seq_leq ack c.snd_nxt then begin
    c.dup_acks <- 0;
    let acked = seq_sub ack c.snd_una in
    (* SYN and FIN occupy sequence space but no buffer bytes. *)
    let buffered = Bytebuf.length c.unacked in
    let from_buffer = min acked buffered in
    if from_buffer > 0 then Bytebuf.drop c.unacked from_buffer;
    c.snd_una <- ack;
    (* Congestion window growth. *)
    if c.cwnd < c.ssthresh then c.cwnd <- c.cwnd + min acked mss
    else c.cwnd <- c.cwnd + max 1 (mss * mss / c.cwnd);
    if in_flight c = 0 then cancel_timer c else arm_timer c;
    Condition.broadcast c.tx_cond;
    if c.fin_sent && ack = c.snd_nxt then begin
      match c.state with
      | Last_ack -> teardown c
      | Fin_wait when c.rcv_fin -> teardown c
      | _ -> ()
    end
  end

let handle_segment c (h : Tcp_wire.header) (payload : Wire.slice) =
  c.peer_window <- max h.Tcp_wire.window mss;
  if h.Tcp_wire.flags.Tcp_wire.rst then teardown c
  else begin
    (* Handshake transitions. *)
    (match c.state with
    | Syn_sent
      when h.Tcp_wire.flags.Tcp_wire.syn && h.Tcp_wire.flags.Tcp_wire.ack
           && h.Tcp_wire.ack_num = Tcp_wire.seq_add c.iss 1 ->
        c.rcv_nxt <- Tcp_wire.seq_add h.Tcp_wire.seq 1;
        c.snd_una <- h.Tcp_wire.ack_num;
        c.state <- Established;
        cancel_timer c;
        send_ack c;
        Condition.broadcast c.hs_cond;
        Condition.broadcast c.tx_cond
    | Syn_received
      when h.Tcp_wire.flags.Tcp_wire.ack
           && h.Tcp_wire.ack_num = Tcp_wire.seq_add c.iss 1 ->
        c.state <- Established;
        cancel_timer c;
        Condition.broadcast c.hs_cond;
        Condition.broadcast c.tx_cond
    | _ -> ());
    let len = payload.Wire.len in
    if h.Tcp_wire.flags.Tcp_wire.ack && c.state <> Syn_sent then begin
      let pure =
        len = 0
        && (not h.Tcp_wire.flags.Tcp_wire.syn)
        && not h.Tcp_wire.flags.Tcp_wire.fin
      in
      process_ack c ~pure h.Tcp_wire.ack_num
    end;
    (* In-order data. *)
    if len > 0 && c.state <> Syn_sent && c.state <> Syn_received then begin
      if h.Tcp_wire.seq = c.rcv_nxt then begin
        Bytebuf.append c.rcvbuf payload;
        c.rcv_nxt <- Tcp_wire.seq_add c.rcv_nxt len;
        Condition.broadcast c.rx_cond;
        send_ack c
      end
      else
        (* Out of order (post-loss): dup-ACK so the peer learns rcv_nxt. *)
        send_ack c
    end;
    (* FIN: only when it is the next expected sequence number. *)
    if
      h.Tcp_wire.flags.Tcp_wire.fin
      && Tcp_wire.seq_add h.Tcp_wire.seq len = c.rcv_nxt
      && not c.rcv_fin
    then begin
      c.rcv_nxt <- Tcp_wire.seq_add c.rcv_nxt 1;
      c.rcv_fin <- true;
      Condition.broadcast c.rx_cond;
      send_ack c;
      match c.state with
      | Established -> c.state <- Close_wait
      | Fin_wait -> if c.fin_sent && c.snd_una = c.snd_nxt then teardown c
      | Syn_sent | Syn_received | Close_wait | Last_ack | Closed -> ()
    end
  end

let send_rst t ~(ih : Ipv4.header) ~(h : Tcp_wire.header) ~payload_len =
  let rst =
    {
      Tcp_wire.src_port = h.Tcp_wire.dst_port;
      dst_port = h.Tcp_wire.src_port;
      seq = h.Tcp_wire.ack_num;
      ack_num = Tcp_wire.seq_add h.Tcp_wire.seq (payload_len + 1);
      flags = { Tcp_wire.no_flags with rst = true; ack = true };
      window = 0;
    }
  in
  Stack.send_ip t.stack ~dst:ih.Ipv4.src ~protocol:Ipv4.Tcp
    ~hdr:
      (Tcp_wire.header rst ~src:(Stack.ip t.stack) ~dst:ih.Ipv4.src
         ~payload:Bytes.empty)
    Bytes.empty

let handle_ip t (ih : Ipv4.header) body =
  match Tcp_wire.decode body ~src:ih.Ipv4.src ~dst:ih.Ipv4.dst with
  | None -> ()
  | Some (h, payload) -> (
      let k = (h.Tcp_wire.dst_port, ih.Ipv4.src, h.Tcp_wire.src_port) in
      match Conns.find t.conns k with
      | c -> handle_segment c h payload
      | exception Not_found -> (
          match Int_table.find_opt t.listeners h.Tcp_wire.dst_port with
          | Some l
            when h.Tcp_wire.flags.Tcp_wire.syn
                 && not h.Tcp_wire.flags.Tcp_wire.ack ->
              let iss = t.next_iss in
              t.next_iss <- t.next_iss + 64000;
              let c =
                make_conn t ~local_port:h.Tcp_wire.dst_port
                  ~remote_ip:ih.Ipv4.src ~remote_port:h.Tcp_wire.src_port
                  ~state:Syn_received ~iss
                  ~rcv_nxt:(Tcp_wire.seq_add h.Tcp_wire.seq 1)
              in
              c.peer_window <- max h.Tcp_wire.window mss;
              c.snd_nxt <- Tcp_wire.seq_add iss 1;
              send_segment c
                { Tcp_wire.no_flags with syn = true; ack = true }
                ~seq:iss;
              arm_timer c;
              Mailbox.send l.backlog c
          | Some _ | None ->
              if not h.Tcp_wire.flags.Tcp_wire.rst then
                send_rst t ~ih ~h ~payload_len:payload.Wire.len))

let attach stack =
  let t =
    {
      stack;
      conns = Conns.create 64;
      listeners = Int_table.create 8;
      next_iss = 100_000;
      next_ephemeral = 32768;
      retransmissions = 0;
    }
  in
  Stack.set_tcp_handler stack (handle_ip t);
  t

(* ------------------------------------------------------------------ *)
(* User API                                                            *)
(* ------------------------------------------------------------------ *)

let listen t ~port =
  if Int_table.mem t.listeners port then
    invalid_arg (Printf.sprintf "Tcp.listen: port %d in use" port);
  let l = { lport = port; backlog = Mailbox.create () } in
  Int_table.add t.listeners port l;
  l

let accept l = Mailbox.recv l.backlog
let accept_timeout l span = Mailbox.recv_timeout l.backlog span

let connect t ~dst ~port =
  let local_port = t.next_ephemeral in
  t.next_ephemeral <-
    (if t.next_ephemeral >= 60999 then 32768 else t.next_ephemeral + 1);
  let iss = t.next_iss in
  t.next_iss <- t.next_iss + 64000;
  let c =
    make_conn t ~local_port ~remote_ip:dst ~remote_port:port ~state:Syn_sent
      ~iss ~rcv_nxt:0
  in
  c.snd_nxt <- Tcp_wire.seq_add iss 1;
  send_segment c { Tcp_wire.no_flags with syn = true } ~seq:iss;
  arm_timer c;
  let deadline_hit = ref false in
  let rec wait_established budget =
    if c.state = Established then ()
    else if c.state = Closed then
      raise
        (Connection_refused
           (Printf.sprintf "connection to %s:%d refused"
              (Ipv4addr.to_string dst) port))
    else if budget <= 0 then deadline_hit := true
    else
      match Condition.timed_wait c.hs_cond budget with
      | `Signaled -> wait_established budget
      | `Timeout -> deadline_hit := true
  in
  wait_established connect_timeout;
  if !deadline_hit && c.state <> Established then begin
    teardown c;
    raise
      (Connection_refused
         (Printf.sprintf "connection to %s:%d timed out"
            (Ipv4addr.to_string dst) port))
  end;
  c

let send c data =
  if c.fin_requested || not (is_open c) then
    raise (Connection_closed "Tcp.send on closed connection");
  Bytebuf.append c.sndbuf (Wire.of_bytes data);
  Condition.broadcast c.tx_cond;
  (* Backpressure: block while the buffer is overfull. *)
  while Bytebuf.length c.sndbuf > sndbuf_max && is_open c do
    Condition.wait c.tx_cond
  done;
  if not (is_open c) && Bytebuf.length c.sndbuf > 0 then
    raise (Connection_closed "connection reset while sending")

let rec recv c ~max =
  let available = Bytebuf.length c.rcvbuf in
  if available > 0 then Some (Bytebuf.take c.rcvbuf (min max available))
  else if c.rcv_fin || c.state = Closed then None
  else begin
    Condition.wait c.rx_cond;
    recv c ~max
  end

(* The readers below leave bytes queued until a whole line or body is:
   the advertised window is the constant [rcv_window], so how long bytes
   wait in [rcvbuf] changes no segment. *)
let rec recv_line c =
  match Bytebuf.index c.rcvbuf '\n' with
  | Some i ->
      let line = Bytebuf.take c.rcvbuf i in
      Bytebuf.drop c.rcvbuf 1;
      Some (Bytes.unsafe_to_string line)
  | None ->
      if c.rcv_fin || c.state = Closed then None
      else begin
        Condition.wait c.rx_cond;
        recv_line c
      end

let rec recv_exact c ~len =
  if len < 0 then invalid_arg "Tcp.recv_exact";
  if Bytebuf.length c.rcvbuf >= len then Some (Bytebuf.take c.rcvbuf len)
  else if c.rcv_fin || c.state = Closed then None
  else begin
    Condition.wait c.rx_cond;
    recv_exact c ~len
  end

let close c =
  if (not c.fin_requested) && c.state <> Closed then begin
    c.fin_requested <- true;
    Condition.broadcast c.tx_cond
  end
