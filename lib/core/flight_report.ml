open Kite_flight
open Kite_stats

(* Renderers for flight recorders and their incident snapshots; shared by
   [kite_ctl flight] / [kite_ctl incident] and the restart-recovery
   experiment report.  Rendering only reads the recorders' public
   accessors, so the text and --json outputs always agree. *)

let ms ns = Table.fmt_f (float_of_int ns /. 1e6)

let summary_table fls =
  let tbl =
    Table.create ~title:"flight recorders"
      ~columns:
        [
          ("machine", Table.Left);
          ("records", Table.Right);
          ("dropped", Table.Right);
          ("incidents", Table.Right);
          ("open", Table.Right);
          ("slos", Table.Right);
        ]
  in
  List.iter
    (fun fl ->
      Table.add_row tbl
        [
          Flight.name fl;
          string_of_int (List.length (Flight.records fl));
          string_of_int (Flight.dropped fl);
          string_of_int (List.length (Flight.incidents fl));
          (match Flight.open_incident fl with Some _ -> "1" | None -> "0");
          string_of_int (List.length (Flight.slos fl));
        ])
    fls;
  Table.note tbl
    "records = current ring occupancy; dropped = overwritten since the ring \
     filled (expected on long runs).";
  tbl

let slo_verdict e =
  if e.Slo.ev_count = 0 then "no data"
  else if e.Slo.ev_met then "met"
  else "MISSED"

let slo_table fls =
  let tbl =
    Table.create ~title:"SLO verdicts"
      ~columns:
        [
          ("machine", Table.Left);
          ("slo", Table.Left);
          ("objective", Table.Left);
          ("window ms", Table.Right);
          ("n", Table.Right);
          ("actual", Table.Right);
          ("compliance", Table.Right);
          ("burn", Table.Right);
          ("verdict", Table.Left);
        ]
  in
  List.iter
    (fun fl ->
      List.iter
        (fun e ->
          Table.add_row tbl
            [
              Flight.name fl;
              e.Slo.ev_name;
              Printf.sprintf "p%g(%s) <= %g" (e.Slo.ev_q *. 100.)
                e.Slo.ev_metric e.Slo.ev_threshold;
              ms (e.Slo.ev_to - e.Slo.ev_from);
              string_of_int e.Slo.ev_count;
              (if Float.is_nan e.Slo.ev_actual then "-"
               else Printf.sprintf "%g" e.Slo.ev_actual);
              Table.fmt_pct (e.Slo.ev_compliance *. 100.);
              Table.fmt_f e.Slo.ev_burn;
              slo_verdict e;
            ])
        (Flight.slo_evals fl))
    fls;
  Table.note tbl
    "burn = over-threshold fraction / error budget (1 - q); > 1.00 means the \
     window overspent its budget.";
  tbl

let incident_headline fl inc =
  Printf.sprintf "incident #%d on %s: %s trigger at %s ms — %s"
    (Flight.incident_seq inc) (Flight.name fl)
    (Flight.trigger_name (Flight.incident_trigger inc))
    (ms (Flight.incident_at inc))
    (Flight.incident_reason inc)

let timeline_table ?(last = 40) fl inc =
  let records = Flight.incident_timeline inc in
  let pre_n = List.length (Flight.incident_pre inc) in
  let n = List.length records in
  let skip = max 0 (pre_n - last) in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf "timeline: incident #%d (%s)"
           (Flight.incident_seq inc) (Flight.name fl))
      ~columns:
        [
          ("at ms", Table.Right);
          ("", Table.Left);
          ("layer", Table.Left);
          ("kind", Table.Left);
          ("key", Table.Left);
          ("detail", Table.Left);
        ]
  in
  List.iteri
    (fun i r ->
      if i >= skip then
        Table.add_row tbl
          [
            ms r.Flight.r_at;
            (if i < pre_n then "" else "+");
            r.Flight.r_layer;
            r.Flight.r_kind;
            r.Flight.r_key;
            r.Flight.r_msg;
          ])
    records;
  let trunc = Flight.incident_truncated inc in
  Table.note tbl
    (Printf.sprintf
       "%d of %d record(s) shown (last %d pre-trigger + all post); + marks \
        post-trigger records%s."
       (n - skip) n (min pre_n last)
       (if trunc > 0 then Printf.sprintf "; %d post record(s) LOST" trunc
        else ""));
  tbl

let delta_table fl inc =
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf "metrics delta: incident #%d (%s), trigger -> seal"
           (Flight.incident_seq inc) (Flight.name fl))
      ~columns:
        [
          ("family", Table.Left);
          ("labels", Table.Left);
          ("before", Table.Right);
          ("after", Table.Right);
          ("delta", Table.Right);
        ]
  in
  List.iter
    (fun (fam, labels, v0, v1) ->
      Table.add_row tbl
        [
          fam;
          String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels);
          Table.fmt_f v0;
          Table.fmt_f v1;
          Printf.sprintf "%+g" (v1 -. v0);
        ])
    (Flight.incident_delta inc);
  tbl

let store_table fl inc =
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf "xenstore at trigger: incident #%d (%s)"
           (Flight.incident_seq inc) (Flight.name fl))
      ~columns:[ ("path", Table.Left); ("value", Table.Left) ]
  in
  List.iter
    (fun (p, v) -> Table.add_row tbl [ p; v ])
    (Flight.incident_store inc);
  tbl

let incident_slo_table fl inc =
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf "SLOs at seal: incident #%d (%s)"
           (Flight.incident_seq inc) (Flight.name fl))
      ~columns:
        [
          ("slo", Table.Left);
          ("objective", Table.Left);
          ("n", Table.Right);
          ("actual", Table.Right);
          ("burn", Table.Right);
          ("verdict", Table.Left);
        ]
  in
  List.iter
    (fun e ->
      Table.add_row tbl
        [
          e.Slo.ev_name;
          Printf.sprintf "p%g(%s) <= %g" (e.Slo.ev_q *. 100.) e.Slo.ev_metric
            e.Slo.ev_threshold;
          string_of_int e.Slo.ev_count;
          (if Float.is_nan e.Slo.ev_actual then "-"
           else Printf.sprintf "%g" e.Slo.ev_actual);
          Table.fmt_f e.Slo.ev_burn;
          slo_verdict e;
        ])
    (Flight.incident_slos inc);
  tbl

let incident_tables ?last fl inc =
  [ timeline_table ?last fl inc; delta_table fl inc; store_table fl inc ]
  @ if Flight.incident_slos inc = [] then [] else [ incident_slo_table fl inc ]

let print_incident ?last fl inc =
  print_endline (incident_headline fl inc);
  List.iter Table.print (incident_tables ?last fl inc)
