open Kite_sim

exception Transient_error of string

type t = {
  name : string;
  sched : Process.sched;
  line_rate_bps : float;
  per_packet : Time.span;
  queue_limit : int;
  txq : Bytes.t Mailbox.t;
  mutable peer : t option;
  mutable propagation : Time.span;
  mutable rx_handler : (Bytes.t -> unit) option;
  mutable tx_packets : int;
  mutable rx_packets : int;
  mutable tx_bytes : int;
  mutable rx_bytes : int;
  mutable dropped : int;
  mutable fault : Kite_fault.Fault.t option;
  mutable impair : Kite_net.Impair.t option;
  mutable held : Bytes.t option;
}

let name t = t.name

let serialization_delay t len =
  let bits = float_of_int (len * 8) in
  int_of_float (bits /. t.line_rate_bps *. 1e9)

let receive t frame =
  t.rx_packets <- t.rx_packets + 1;
  t.rx_bytes <- t.rx_bytes + Bytes.length frame;
  match t.rx_handler with Some f -> f frame | None -> ()

let transmitter t () =
  let engine = Process.engine t.sched in
  let rec loop () =
    let frame = Mailbox.recv t.txq in
    let len = Bytes.length frame in
    Process.sleep (serialization_delay t len + t.per_packet);
    t.tx_packets <- t.tx_packets + 1;
    t.tx_bytes <- t.tx_bytes + len;
    (match t.peer with
    | Some peer -> (
        let deliver extra frame =
          ignore
            (Engine.schedule_after engine (t.propagation + extra) (fun () ->
                 receive peer frame))
        in
        match t.impair with
        | None -> deliver 0 frame
        | Some imp -> (
            (* Impaired cable: every frame draws a fate from the
               impairment's private RNG stream.  A held frame rides just
               behind the next delivered one (a one-frame swap). *)
            match Kite_net.Impair.frame imp with
            | Kite_net.Impair.Drop -> ()
            | Kite_net.Impair.Hold -> t.held <- Some frame
            | Kite_net.Impair.Deliver extra ->
                deliver extra frame;
                (match t.held with
                | Some h ->
                    t.held <- None;
                    Kite_net.Impair.release imp;
                    deliver (extra + 1) h
                | None -> ())))
    | None -> ());
    loop ()
  in
  loop ()

let create sched ~name ?(line_rate_gbps = 10.0)
    ?(per_packet = Time.ns 100) ?(queue_limit = 1024) () =
  let t =
    {
      name;
      sched;
      line_rate_bps = line_rate_gbps *. 1e9;
      per_packet;
      queue_limit;
      txq = Mailbox.create ();
      peer = None;
      propagation = 0;
      rx_handler = None;
      tx_packets = 0;
      rx_packets = 0;
      tx_bytes = 0;
      rx_bytes = 0;
      dropped = 0;
      fault = None;
      impair = None;
      held = None;
    }
  in
  Process.spawn sched ~daemon:true ~name:("nic-" ^ name ^ "-tx")
    (transmitter t);
  t

let connect a b ~propagation =
  if a.peer <> None || b.peer <> None then
    invalid_arg "Nic.connect: NIC already wired";
  a.peer <- Some b;
  b.peer <- Some a;
  a.propagation <- propagation;
  b.propagation <- propagation

let set_rx_handler t f = t.rx_handler <- Some f
let set_fault t f = t.fault <- f

let set_impair t imp =
  t.impair <- imp;
  if imp = None then t.held <- None

let transmit t frame =
  (* Transient transmit failure (descriptor ring hiccup): raised at the
     enqueue point so the caller — netback's pusher — can retry with
     backoff. *)
  (match t.fault with
  | Some f
    when Kite_fault.Fault.fire f Kite_fault.Fault.Device_io ~key:t.name ->
      raise
        (Transient_error
           (Printf.sprintf "nic %s: transient transmit failure" t.name))
  | _ -> ());
  if Mailbox.length t.txq >= t.queue_limit then t.dropped <- t.dropped + 1
  else Mailbox.send t.txq frame

let tx_packets t = t.tx_packets
let rx_packets t = t.rx_packets
let tx_bytes t = t.tx_bytes
let rx_bytes t = t.rx_bytes
let dropped t = t.dropped
