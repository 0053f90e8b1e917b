(** Physical NIC model (the paper's Intel 82599ES 10GbE).

    Each NIC has a transmit queue drained at line rate by a transmitter
    process; a frame's service time is its serialization delay plus a
    fixed per-packet processing overhead.  Two NICs are joined by a
    full-duplex link with a propagation delay.  When the transmit queue is
    full, frames are dropped — which is where nuttcp's UDP loss comes
    from when offered load exceeds capacity. *)

type t

val create :
  Kite_sim.Process.sched ->
  name:string ->
  ?line_rate_gbps:float ->
  ?per_packet:Kite_sim.Time.span ->
  ?queue_limit:int ->
  unit ->
  t
(** Defaults: 10 Gbps, 100 ns per packet, 1024-frame queue. *)

val name : t -> string

val connect : t -> t -> propagation:Kite_sim.Time.span -> unit
(** Join two NICs with a full-duplex cable (the paper's direct SFP+
    link).  Raises [Invalid_argument] if either end is already wired. *)

val set_rx_handler : t -> (Bytes.t -> unit) -> unit
(** Invoked in interrupt context for every arriving frame. *)

exception Transient_error of string
(** A retryable transmit failure, produced only by an attached fault
    injector ([Device_io]; key = device name). *)

val set_fault : t -> Kite_fault.Fault.t option -> unit

val set_impair : t -> Kite_net.Impair.t option -> unit
(** Attach (or clear) a link impairment on this NIC's transmit
    direction.  Free when unused: the hot path is one [match] on [None].
    A frame held for reordering is released right behind the next
    delivered frame; clearing the impairment discards any held frame. *)

val transmit : t -> Bytes.t -> unit
(** Enqueue a frame for transmission.  Never blocks; drops when the queue
    is full. *)

val tx_packets : t -> int
val rx_packets : t -> int
val tx_bytes : t -> int
val rx_bytes : t -> int
val dropped : t -> int
