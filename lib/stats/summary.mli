(** Summary statistics over float samples. *)

type t = {
  n : int;
  mean : float;
  stdev : float;  (** sample standard deviation (n-1 denominator) *)
  rsd_pct : float;  (** relative standard deviation, percent of the mean *)
  min : float;
  max : float;
}

val of_list : float list -> t
(** Raises [Invalid_argument] on the empty list. *)

val mean : float list -> float
val stdev : float list -> float

val rsd_pct : float list -> float
(** Relative standard deviation as a percentage of the mean; 0 when the
    mean is 0. *)

val percentile : float list -> float -> float
(** [percentile xs p] for [p] in [\[0, 100\]], linear interpolation.
    Raises [Invalid_argument] on the empty list.

    Convention note: this takes percentiles ([p ∈ \[0, 100\]]) while
    {!Histogram.quantile} takes quantiles ([q ∈ \[0, 1\]]);
    {!Histogram.percentile} bridges the two. *)

val median : float list -> float
