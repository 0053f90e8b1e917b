(** Findings collected by the invariant checkers.

    A report is the sink shared by every {!Check} instance of a run: the
    checkers append findings as violations are observed (or during the
    end-of-run audits) and the CLI renders the whole report once, as text
    or JSON, before deciding the exit status. *)

type severity = Info | Warning | Error

val severity_to_string : severity -> string

type finding = {
  severity : severity;
  subsystem : string;  (** "grant", "ring", "sched" or "xenstore" *)
  rule : string;  (** stable slug, e.g. "grant-leak" — what tests assert *)
  provenance : string;  (** process / ring / scenario the violation hit *)
  message : string;
}

type t

val create : unit -> t

val add : t -> finding -> unit

val set_observer : t -> (finding -> unit) option -> unit
(** Install (or clear) an observer called from {!add} after each finding
    is recorded.  At most one observer per report; the flight recorder is
    the intended client.  A report is shared by every checker of a run,
    so the observer sees findings from all of them. *)

val count : t -> int
val errors : t -> int
val warnings : t -> int

val by_rule : t -> string -> finding list

val print : t -> unit

val to_json : t -> string
(** The whole report as a JSON object (no external dependencies). *)
