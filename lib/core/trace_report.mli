(** Render {!Kite_trace.Trace} data as report tables.

    [kite_ctl trace] and the [hypercalls] experiment print these; the raw
    Chrome JSON exporter lives in [kite_trace] itself. *)

val summary_table : Kite_trace.Trace.t list -> Kite_stats.Table.t
(** One row per traced machine: events recorded/dropped, spans
    completed/open.  Gains a WARNING footnote when any bounded buffer
    dropped events (the Chrome export and the event count are short;
    spans and breakdowns are exact). *)

val total_dropped : Kite_trace.Trace.t list -> int
(** Events dropped across all machines — [kite_ctl trace --fail-on-drop]
    and the [@trace] gate turn non-zero into a failing exit. *)

val hypercall_table : Kite_trace.Trace.t list -> Kite_stats.Table.t
(** The §4.2-style per-domain hypercall profile: count, total and average
    simulated cost per (machine, domain, operation). *)

val breakdown_tables : Kite_trace.Trace.t list -> Kite_stats.Table.t list
(** One table per span kind ([net.tx], [blk]): p50/p95/p99/mean attributed
    time per stage, with the end-to-end TOTAL last. *)
