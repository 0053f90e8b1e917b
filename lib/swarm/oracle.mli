(** Graceful-degradation oracle over an offered-load sweep.

    A sweep runs the swarm at increasing multiples of a measured
    closed-loop capacity, each step a fixed client population.  The
    oracle turns the step results into an asserted verdict:

    - {e knee}: the first step whose goodput falls below 0.9 of its
      offered rate — the saturation point.  Every sweep that goes
      past capacity must have one.
    - {e graceful} (the Kite promise): past the knee, goodput stays a
      plateau ([>= 0.7] of the peak — monotone-then-flat, no
      collapse), no step records request errors, and p999 stays bounded.
      The p999 bound is principled rather than arbitrary: with a fixed
      population of [clients] per step, the worst backlog an open-loop
      step can build is the whole population, which a backend that keeps
      its capacity drains in [clients / capacity] seconds — so p999 must
      stay within 3x that, independent of the overload
      multiple.  A backend that loses capacity under pressure (lock
      convoys, drop-retransmit storms) blows through it.
    - {e collapse}: the first step whose goodput drops below 0.7 of the
      peak — recorded for the Linux flavor, never
      asserted. *)

type step = {
  st_mult : float;  (** offered load as a multiple of measured capacity *)
  st_offered_rps : float;
  st_goodput_rps : float;
  st_p99_ms : float;
  st_p999_ms : float;
  st_errors : int;
}

type verdict = {
  vd_knee : int option;  (** index into the sweep *)
  vd_collapse : int option;
  vd_peak_rps : float;
  vd_p999_bound_ms : float;
  vd_ok : bool;
  vd_reasons : string list;  (** why [vd_ok] is false; [] when it holds *)
}

val assess : clients_per_step:int -> capacity_rps:float -> step list -> verdict
