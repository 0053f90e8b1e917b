(** Service-level objectives over {!Kite_metrics.Registry} histograms.

    An SLO promises that a target quantile of a latency histogram stays
    at or below a threshold over an evaluation window.  The window is
    bounded by bucket snapshots: {!arm} copies the instance's current
    bucket counts and {!evaluate} diffs the live buckets against that
    baseline, so only observations recorded in between are scored and
    the instrumented hot paths are untouched.

    Burn rate follows the error-budget convention: a [q]-quantile SLO
    grants a budget of [1 - q] over-threshold observations; burn is the
    observed over-threshold fraction divided by that budget, so burn
    [<= 1.0] means the promise held and [10.0] means the window spent
    its budget ten times over (the restart-recovery blackout spike). *)

type t

val create :
  ?labels:(string * string) list ->
  name:string ->
  metric:string ->
  quantile:float ->
  threshold:float ->
  Kite_metrics.Registry.t ->
  t
(** [create ~name ~metric ~quantile ~threshold reg] targets the
    histogram instance [metric]/[labels] (default []) in [reg]:
    "the [quantile]-quantile of [metric] stays <= [threshold]".
    [quantile] uses the histogram convention [q ∈ (0, 1)] (e.g. 0.99
    for p99); [threshold] is in the histogram's observation unit.
    Raises [Invalid_argument] on an out-of-range quantile or a
    non-positive threshold.  The instance need not exist yet — an SLO
    armed before traffic simply sees an empty baseline. *)

val arm : t -> at:int -> unit
(** Open an evaluation window at simulated time [at] (ns): snapshot the
    instance's bucket counts as the baseline.  A fresh SLO is armed at
    time 0 with an empty baseline, so arming is optional when the whole
    run is the window. *)

type eval = {
  ev_name : string;
  ev_metric : string;
  ev_q : float;
  ev_threshold : float;
  ev_from : int;  (** window start: the last {!arm} time *)
  ev_to : int;  (** window end: the {!evaluate} time *)
  ev_count : int;  (** observations recorded inside the window *)
  ev_actual : float;
      (** the target quantile over the window ([nan] when empty) *)
  ev_compliance : float;
      (** fraction of windowed observations <= threshold; [1.0] when the
          window is empty *)
  ev_burn : float;  (** [(1 - compliance) / (1 - q)] *)
  ev_met : bool;  (** [actual <= threshold] (vacuously true when empty) *)
}

val evaluate : t -> at:int -> eval
(** Score the window [\[arm time, at\]].  Pure with respect to the SLO:
    the baseline is kept, so repeated evaluations extend the same
    window. *)

val eval_to_json : eval -> string

(**/**)

(* JSON helpers shared with [Flight]; [json_escape] is
   [Kite_stats.Export.json_escape]. *)
val json_escape : string -> string
val json_num : float -> string

(**/**)
