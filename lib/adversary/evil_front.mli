(** A byzantine split-driver frontend, for either device type.

    Speaks just enough of the handshake to connect (or to present a
    hostile handshake), then fires one attack primitive per call; every
    index, reference, length and state it publishes is
    attacker-controlled.  Used by {!Campaign} and the deterministic
    per-primitive tests — the oracle is always on the backend side:
    typed {!Kite_drivers.Guest_fault} findings, quarantine escalation,
    and zero impact on co-hosted honest guests.

    The state, the handshake and every volley the two protocols share
    are written once; the device only chooses the ring keys and how
    rings are shared, the request a volley carries, the junk byte of
    its pages, what {!attack_bad_length} aims at, and whether
    {!attack_foreign_gref} polls.  A vbd never negotiates persistent
    grants, so the backend unmaps its data pages after every request.

    Run every call below from process context on the testbed's
    scheduler. *)

(** The device protocol spoken, indexed by its ring's request and
    response types. *)
type (_, _) device =
  | Vif
      : ( Kite_drivers.Netchannel.tx_request,
          Kite_drivers.Netchannel.tx_response )
        device
      (** A netfront: a Tx and an Rx ring per queue. *)
  | Vbd : (Kite_drivers.Blkif.request, Kite_drivers.Blkif.response) device
      (** A blkfront: one ring per queue. *)

type ('q, 'p) t

type handshake =
  | Honest  (** complete the handshake properly; attack afterwards *)
  | Forged_ring_ref  (** advertise ring references nobody shared *)
  | Hijacked_port  (** advertise an event channel nobody allocated *)
  | Garbage_keys  (** unparsable negotiation keys *)

val create :
  ('q, 'p) device ->
  Kite_drivers.Xen_ctx.t ->
  domain:Kite_xen.Domain.t ->
  backend:Kite_xen.Domain.t ->
  devid:int ->
  nq:int ->
  ('q, 'p) t
(** The toolstack must already have registered the device
    ({!Kite_drivers.Toolstack.add_vif} or
    {!Kite_drivers.Toolstack.add_vbd}) so the backend watch fires. *)

val handshake : (_, _) t -> handshake -> unit
(** Blocks until the backend reaches InitWait, publishes the keys the
    mode calls for, and — for [Honest] only — waits for Connected.  The
    hostile modes leave the backend's rejection (its directory driven to
    Closed) unacknowledged, like a guest that doesn't care. *)

(** {1 Attack primitives}

    Each volley lands enough violations in one ring drain to walk the
    quarantine ladder to eviction (severe classes get there in one). *)

val attack_bad_gref : (_, _) t -> unit
(** Forged grant references, plus granted-then-revoked ones. *)

val attack_foreign_gref : (_, _) t -> victim:int -> unit
(** Requests naming grants issued by domain [victim] (scanned from the
    grant table like a guessing guest; a vbd polls briefly for the
    victim's transient grants; degrades to forged refs if the victim has
    nothing granted). *)

val attack_bad_length : (_, _) t -> unit
(** Descriptor lengths outside the granted page (including negative) on
    a vif; requests aimed past the end of the device (and before its
    start) on a vbd. *)

val attack_bad_segment :
  (Kite_drivers.Blkif.request, Kite_drivers.Blkif.response) t -> unit
(** Oversized direct segment lists, an indirect count past the cap, and
    impossible segment geometry. *)

val attack_unmappable_gref :
  (Kite_drivers.Blkif.request, Kite_drivers.Blkif.response) t ->
  [ `Two_segments | `Two_requests | `Two_descriptors | `Other_grantee ] ->
  unit
(** A granted page the backend may not map: one reference named twice
    where the backend maps each use (in two segments of one direct
    request, by two requests in one drain, or as both descriptor pages
    of one indirect request), or a page granted to a third domain.  Not
    a {!Campaign} class. *)

val attack_end_before_map :
  (Kite_drivers.Blkif.request, Kite_drivers.Blkif.response) t -> unit
(** An honest write and a forged one in one drain; once the backend has
    taken both, the honest write's grant is ended, while the backend
    answers the forged one, before it maps the honest one.  Not a
    {!Campaign} class. *)

val attack_replay : (_, _) t -> unit
(** Request ids replayed while still in flight on the same queue. *)

val attack_slot_reuse : (_, _) t -> unit
(** One request id live on two queues at once.  Needs [nq >= 2]. *)

val attack_ring_index : (_, _) t -> unit
(** Scribbles the shared request-producer index out of range — severe;
    the backend offlines the device on sight. *)

val attack_xenbus_jump : (_, _) t -> unit
(** Illegal frontend state transitions (including garbage) written
    straight into the store. *)

val attack_storm : (_, _) t -> count:int -> unit
(** [count] doorbell rings with no ring work posted. *)

val cleanup : (_, _) t -> unit
(** Revoke every grant still outstanding so the end-of-run audit sees
    no leak from the attacker either. *)
