(** Seeded link impairments: loss, reordering, and extra delay injected
    at the cable between two NICs.

    The NIC model is ideal — the only losses it produces are transmit
    queue overflows.  Real deployments also see random frame loss, jitter
    and occasional reordering, and the swarm harness needs those to probe
    how each Kite flavor's TCP stack behaves under degraded links.  An
    [Impair.t] sits on one direction of a cable and draws, from its own
    private RNG stream, a fate for every frame the transmitter hands it.

    Determinism contract: the fate sequence is a pure function of the
    seed and the frame sequence — the impairment RNG is never shared
    with any other component, so enabling impairments cannot perturb
    arrival times or any other seeded stream. *)

type spec = {
  loss : float;  (** probability a frame is silently dropped *)
  reorder : float;
      (** probability a frame is held back and released just after the
          next frame on the same direction (a one-frame swap) *)
  delay : Kite_sim.Time.span;  (** fixed extra one-way delay *)
  jitter : Kite_sim.Time.span;  (** extra delay uniform in [0, jitter) *)
}

val none : spec
(** All-zero spec: a [t] built from it delivers every frame unmodified. *)

val spec_of_string : string -> (spec, string) result
(** Parse a comma-separated spec, e.g.
    ["loss=0.01,reorder=0.005,delay=200us,jitter=50us"].  Durations
    accept [ns]/[us]/[ms]/[s] suffixes; omitted fields default to zero. *)

type t

val create : ?seed:int -> spec -> t
(** Default [seed] 1. *)

type verdict =
  | Deliver of Kite_sim.Time.span  (** deliver with this extra delay *)
  | Hold  (** hold the frame; release it right after the next one *)
  | Drop  (** silently discard *)

val frame : t -> verdict
(** Draw the fate of the next frame.  Updates the counters below.
    Never returns [Hold] while a previous hold is outstanding. *)

val release : t -> unit
(** Tell the impairment that the held frame has been put back on the
    wire (the NIC does this when it delivers the following frame). *)
