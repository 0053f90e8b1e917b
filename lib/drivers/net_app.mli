(** The network domain's orchestration application (§4.3).

    In Kite this replaces Xen's shell/Python tooling: a single-process
    application that creates a bridge, brings up and attaches the physical
    interface (the ported ifconfig/brconfig functionality), then adds each
    VIF the netback driver creates.  It cooperates with the driver by
    running inside the same cooperative scheduler. *)

type t

val run :
  Xen_ctx.t ->
  domain:Kite_xen.Domain.t ->
  nic:Kite_devices.Nic.t ->
  overheads:Overheads.t ->
  ?max_queues:int ->
  unit ->
  t
(** Start the network driver domain's data path: physical IF bridged with
    all current and future VIFs.  [max_queues] caps what multi-queue
    frontends may negotiate (netback's default when omitted). *)

val run_multi :
  Xen_ctx.t ->
  domain:Kite_xen.Domain.t ->
  nics:Kite_devices.Nic.t list ->
  overheads:Overheads.t ->
  ?max_queues:int ->
  unit ->
  t
(** Multi-NIC variant (§3.1's "several NICs for better I/O scaling"): one
    bridge per NIC; each new VIF joins the bridge selected by
    [(frontend id + devid) mod #nics]. *)

val bridge : t -> Kite_net.Bridge.t
(** The first bridge (the only one under {!run}). *)

val netback : t -> Netback.t
