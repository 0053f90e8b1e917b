(** Log-bucketed histograms for latency distributions.

    Values are assigned to buckets whose bounds grow geometrically (factor
    2 by default), so a single histogram spans nanoseconds to seconds with
    bounded memory.  Quantiles interpolate within the bucket. *)

type t

val create : ?base:float -> ?factor:float -> unit -> t
(** Buckets are [\[base * factor^i, base * factor^(i+1))]; defaults:
    base 0.001, factor 2.0 (suits millisecond-scale samples down to
    microseconds). *)

val add : t -> float -> unit
(** Negative values are clamped to the lowest bucket. *)

val add_list : t -> float list -> unit

val count : t -> int
val mean : t -> float

val quantile : t -> float -> float
(** [quantile t q] for [q] in [\[0, 1\]], linearly interpolated within the
    bucket.  Raises [Invalid_argument] when empty or [q] out of range.

    Convention note: histograms speak quantiles ([q ∈ \[0, 1\]]) while
    {!Summary.percentile} speaks percentiles ([p ∈ \[0, 100\]]); use
    {!percentile} when mixing the two. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [\[0, 100\]] — the bridge to the
    {!Summary.percentile} convention: exactly [quantile t (p /. 100.)],
    including its exceptions. *)

val buckets : t -> (float * float * int) list
(** Non-empty buckets as (lower bound, upper bound, count), ascending. *)

val sparkline : t -> string
(** A compact ASCII bar rendering of the distribution, e.g. [".:=@#-."],
    one character per non-empty bucket. *)
