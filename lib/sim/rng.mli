(** Deterministic pseudo-random number generator (splitmix64).

    Every simulation component that needs randomness takes an explicit
    [Rng.t] so that experiments are reproducible run-to-run. *)

type t

val create : int -> t
(** [create seed] makes a generator from a seed. *)

val split : t -> t
(** Derive an independent generator; the parent advances. *)

val bits64 : t -> int64
(** Next raw 64 bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be > 0. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bool : t -> bool

val gaussian : t -> mean:float -> stdev:float -> float
(** Normally distributed sample (Box-Muller). *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean. *)
