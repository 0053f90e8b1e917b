(** Renderers for {!Kite_flight.Flight} recorders, their incident
    snapshots, and {!Kite_flight.Slo} verdicts — shared by
    [kite_ctl flight] / [kite_ctl incident] and the restart-recovery
    experiment report. *)

val summary_table : Kite_flight.Flight.t list -> Kite_stats.Table.t
(** One row per recorder: ring occupancy, drops, incident and SLO
    counts. *)

val slo_table : Kite_flight.Flight.t list -> Kite_stats.Table.t
(** One row per SLO verdict from each recorder's last seal. *)

val incident_headline : Kite_flight.Flight.t -> Kite_flight.Flight.incident -> string

val incident_tables :
  ?last:int ->
  Kite_flight.Flight.t ->
  Kite_flight.Flight.incident ->
  Kite_stats.Table.t list
(** The full rendered snapshot: timeline, metrics delta, xenstore dump,
    and SLO verdicts when any are registered. *)

val print_incident :
  ?last:int ->
  Kite_flight.Flight.t ->
  Kite_flight.Flight.incident ->
  unit
(** Headline plus {!incident_tables} to stdout. *)
