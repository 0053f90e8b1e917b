(** Traffic-profile vocabulary for the swarm harness.

    A profile describes how simulated clients behave: how sessions
    arrive (Poisson or heavy-tailed Pareto), how big requests are
    (fixed, lognormal, or Pareto), how many requests a session issues
    over one connection before churning, how long clients think between
    requests, what fraction are slow drip-feed clients, and how the
    offered rate is modulated over time (flash crowds, diurnal ramps).

    All sampling takes an explicit {!Kite_sim.Rng.t}, so a profile is a
    pure description; determinism is the caller's seed discipline. *)

type arrivals =
  | Poisson of float  (** exponential gaps; the rate in sessions/s *)
  | Pareto of { rate : float; alpha : float }
      (** heavy-tailed gaps with mean [1/rate]; [alpha > 1] is the tail
          index (lower = heavier tail, burstier traffic) *)

type sizes =
  | Fixed of int
  | Lognormal of { median : int; sigma : float; cap : int }
      (** [median * exp (sigma * Z)] bytes, capped *)
  | Pareto_size of { floor : int; alpha : float; cap : int }
      (** [floor * U^(-1/alpha)] bytes, capped *)

type flash = {
  fl_at : Kite_sim.Time.span;  (** offset from the run start *)
  fl_len : Kite_sim.Time.span;
  fl_mult : float;  (** rate multiplier inside the window *)
}

type t = {
  p_name : string;
  arrivals : arrivals;
  sizes : sizes;
  requests_per_session : int;
      (** mean requests per connection (geometric, >= 1); 1 = pure churn *)
  think : Kite_sim.Time.span;  (** mean think time between requests *)
  slow_fraction : float;  (** fraction of drip-feed (slowloris-ish) clients *)
  slow_stretch : int;
      (** a slow client's request is written in this many chunks, one
          think-gap apart *)
  flash : flash list;
  diurnal : (Kite_sim.Time.span * float) option;
      (** (period, trough): rate swings sinusoidally between
          [trough * rate] and [rate] over each period, starting at the
          trough *)
}

val rate : t -> float
(** Base (unmodulated) session arrival rate. *)

val with_rate : t -> float -> t
(** Same shape, different base arrival rate — for knee sweeps. *)

val gap : t -> Kite_sim.Rng.t -> at:Kite_sim.Time.span -> Kite_sim.Time.span
(** Next inter-arrival gap at offset [at]; the base draw (exponential or
    Pareto) divided by the combined diurnal x flash rate multiplier at
    [at].  Pareto gaps are capped at 10^4 mean gaps so a single
    astronomical draw cannot stall a run. *)

val size : t -> Kite_sim.Rng.t -> int
val session_length : t -> Kite_sim.Rng.t -> int
val think_gap : t -> Kite_sim.Rng.t -> Kite_sim.Time.span
val slow : t -> Kite_sim.Rng.t -> bool

val find : string -> t option
val names : string
(** Comma-separated builtin names, for usage strings. *)
