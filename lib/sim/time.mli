(** Simulated time.

    Simulated clocks are integers counting nanoseconds since the start of
    the simulation.  A 63-bit [int] covers ~146 years of simulated time,
    far beyond any experiment in this repository. *)

type t = int
(** An absolute instant, in nanoseconds since simulation start. *)

type span = int
(** A duration in nanoseconds.  Spans may be added to instants. *)

val zero : t

val ns : int -> span
(** [ns n] is a span of [n] nanoseconds. *)

val us : int -> span
(** [us n] is a span of [n] microseconds. *)

val ms : int -> span
(** [ms n] is a span of [n] milliseconds. *)

val sec : int -> span
(** [sec n] is a span of [n] seconds. *)

val of_sec_f : float -> span
(** [of_sec_f s] converts a duration in (possibly fractional) seconds. *)

val to_sec_f : span -> float
(** [to_sec_f s] is the span in seconds as a float. *)

val to_ms_f : span -> float
(** [to_ms_f s] is the span in milliseconds as a float. *)

val to_us_f : span -> float
(** [to_us_f s] is the span in microseconds as a float. *)

val to_string : span -> string
(** The span with an adaptive unit (ns, us, ms, s). *)
