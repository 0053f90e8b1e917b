open Kite_stats
module Trace = Kite_trace.Trace

let fint = string_of_int
let us ns = Table.fmt_f (ns /. 1000.)

let summary_table ts =
  let t =
    Table.create ~title:"Trace summary"
      ~columns:
        [
          ("machine", Table.Left);
          ("events", Table.Right);
          ("dropped", Table.Right);
          ("spans", Table.Right);
          ("open spans", Table.Right);
        ]
  in
  List.iter
    (fun tr ->
      Table.add_row t
        [
          Trace.name tr;
          fint (Trace.events tr);
          fint (Trace.dropped tr);
          fint (Trace.span_count tr);
          fint (Trace.open_spans tr);
        ])
    ts;
  let lost = List.fold_left (fun a tr -> a + Trace.dropped tr) 0 ts in
  if lost > 0 then
    Table.note t
      (Printf.sprintf
         "WARNING: %d event(s) dropped at the buffer limit — the Chrome \
          export and the event count are short (spans, breakdowns and the \
          hypercall profile stay exact); trace fewer experiments, or drop \
          --full"
         lost);
  t

let total_dropped ts =
  List.fold_left (fun a tr -> a + Trace.dropped tr) 0 ts

let hypercall_table ts =
  let t =
    Table.create ~title:"Per-domain hypercall profile (xentrace-style)"
      ~columns:
        [
          ("machine", Table.Left);
          ("domain", Table.Left);
          ("operation", Table.Left);
          ("count", Table.Right);
          ("total us", Table.Right);
          ("avg ns", Table.Right);
        ]
  in
  List.iter
    (fun (machine, domain, op, count, total) ->
      Table.add_row t
        [
          machine;
          domain;
          op;
          fint count;
          us (float_of_int total);
          Table.fmt_f (float_of_int total /. float_of_int (max 1 count));
        ])
    (Trace.hypercall_profile ts);
  Table.note t
    "exact aggregation (independent of the event-buffer limit); zero-cost \
     rows itemize kernel-internal grant ops whose CPU time is folded into \
     the calibrated per-unit costs";
  t

let breakdown_tables ts =
  List.map
    (fun (kind, stages) ->
      let t =
        Table.create
          ~title:(Printf.sprintf "Latency breakdown: %s spans (us)" kind)
          ~columns:
            [
              ("stage", Table.Left);
              ("n", Table.Right);
              ("p50", Table.Right);
              ("p95", Table.Right);
              ("p99", Table.Right);
              ("mean", Table.Right);
            ]
      in
      List.iter
        (fun (stage, durs) ->
          match durs with
          | [] -> ()
          | _ ->
              Table.add_row t
                [
                  stage;
                  fint (List.length durs);
                  us (Summary.percentile durs 50.);
                  us (Summary.percentile durs 95.);
                  us (Summary.percentile durs 99.);
                  us (Summary.mean durs);
                ])
        stages;
      Table.note t
        "stages partition each request's lifetime; TOTAL is begin-to-end";
      t)
    (Trace.breakdown ts)
