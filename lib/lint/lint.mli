(** Source lint for the instrumentation discipline the simulator relies
    on.  Parses [.ml] files with the compiler's own frontend and checks
    syntactic policies that the type checker cannot: hot observability
    hooks must be guarded so they are free when no sink is attached,
    grant maps must have a matching unmap, xenstore watches a matching
    unwatch, a file that builds a hypervisor and arms it through
    [Scenario.arm] must call [Scenario.register_teardown], and no file but
    [scenario.ml] may build a context with [Xen_ctx.create].

    The rules are deliberately lexical (per-file pairing, guard shapes)
    rather than a dataflow analysis: the codebase uses a small set of
    idioms — [match t.sink with Some s -> hook s ... | None -> ()] and
    [if Race.active () then ...] — and the lint enforces that those
    idioms are the only way hot hooks get called.

    Escape hatch: a [let[@lint.guarded] f ...] binding (or an expression
    carrying the attribute) is treated as guarded — for helpers that are
    only ever reached through a guard the lint cannot see, e.g. the
    memoizing per-sink registration helpers in [Process.spawn]. *)

val lint_file : Kite_check.Report.t -> string -> unit
(** Parse one [.ml] file and append any findings to the report.  A file
    that fails to parse yields a [lint-parse-error] finding rather than
    an exception.  The hook-guard rule polices calls through the modules
    [Check], [Trace], [Fault], [Race], [Registry] and [Flight] (the path
    engine has no hook: it only observes the tracer), and skips the
    detector implementations themselves ([check.ml], [report.ml],
    [trace.ml], [fault.ml], [race.ml], [registry.ml], [flight.ml],
    [slo.ml], [lint.ml]). *)

val lint_paths : Kite_check.Report.t -> string list -> int
(** Walk directories recursively (or take files as-is), lint every
    [.ml] file found, and return the number of files linted.  Findings
    accumulate in the report under subsystem ["lint"] with rules
    [lint-hook-unguarded], [lint-grant-unpaired], [lint-watch-unpaired],
    [lint-teardown-missing] and [lint-testbed-unarmed]. *)
