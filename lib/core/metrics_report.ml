open Kite_metrics
open Kite_stats

(* Rendering only reads the registries through the public polling API
   ([read] to enumerate instances, [last_sample]/[rate]/[quantile] for
   history), so
   [kite_ctl top] and [kite_ctl metrics] are guaranteed to agree with
   the /metrics exposition — same registry, same closures. *)

let instances r name =
  List.filter_map
    (fun (n, labels, v) -> if n = name then Some (labels, v) else None)
    (Registry.read r)

let any _ = true
let frontend labels = List.mem ("side", "frontend") labels

(* Sum over matching instances of the last *sampled* value — the
   steady-state figure, not the post-teardown one the live closure would
   read now — falling back to the current value for registries that were
   never sampled.  None when the machine has no such instrument. *)
let sum_values r name ~where =
  match instances r name |> List.filter (fun (l, _) -> where l) with
  | [] -> None
  | xs ->
      Some
        (List.fold_left
           (fun acc (labels, v) ->
             match Registry.last_sample r name labels with
             | Some (_, sv) -> acc +. sv
             | None -> acc +. v)
           0. xs)

(* Active-window per-second rate, summed across matching instances.
   When a burst completes inside one sampling interval the registry
   never sees the value move; counters in this simulator are born zero
   at t=0, so fall back to the whole-run average. *)
let rate r name ~where =
  match instances r name |> List.filter (fun (l, _) -> where l) with
  | [] -> None
  | xs ->
      Some
        (List.fold_left
           (fun acc (labels, _) ->
             match Registry.rate r name labels with
             | Some per_s -> acc +. per_s
             | None -> (
                 match Registry.last_sample r name labels with
                 | Some (at, v) when at > 0 && v > 0. ->
                     acc +. (v /. float_of_int at *. 1e9)
                 | _ -> acc))
           0. xs)

(* Report renderers speak percentiles in [0, 100] (the Summary.percentile
   convention used by the trace breakdown tables); Registry.percentile is
   the single bridge to the histograms' [0, 1] quantile convention. *)
let percentile r name p =
  match instances r name with
  | [] -> None
  | (labels, _) :: _ -> Registry.percentile r name labels p

let dash = "-"
let fmt_opt f = function None -> dash | Some v -> f v

type sort = By_rate | By_busy

(* Sort keys read the same polled surfaces as the rows themselves, so
   ordering can't disagree with the numbers printed. *)
let sort_key r = function
  | By_rate ->
      let g name = Option.value ~default:0. (rate r name ~where:frontend) in
      g "kite_net_tx_packets_total"
      +. g "kite_net_rx_packets_total"
      +. g "kite_blk_requests_total"
  | By_busy ->
      (* A histogram's scalar is its observation count: the machine whose
         busiest histogram saw the most events sorts first. *)
      let hists =
        List.filter_map
          (fun (n, kind, _) ->
            if kind = Registry.Histogram then Some n else None)
          (Registry.families r)
      in
      List.fold_left
        (fun acc (n, _, v) ->
          if List.mem n hists then Float.max acc v else acc)
        0. (Registry.read r)

let top_table ?sort rs =
  let rs =
    match sort with
    | None -> rs
    | Some s ->
        List.stable_sort (fun a b -> compare (sort_key b s) (sort_key a s)) rs
  in
  let tbl =
    Table.create ~title:"kite top - live per-machine telemetry"
      ~columns:
        [
          ("machine", Table.Left);
          ("tx/s", Table.Right);
          ("rx/s", Table.Right);
          ("io/s", Table.Right);
          ("ring", Table.Right);
          ("grants", Table.Right);
          ("pgrants", Table.Right);
          ("io p50 us", Table.Right);
          ("io p99 us", Table.Right);
          ("alerts", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      (* Worst pending-slot count across request rings.  The net Rx ring
         is excluded: a healthy frontend keeps it full of posted
         buffers, so its occupancy is not a congestion signal. *)
      let ring =
        let tagged name xs = List.map (fun x -> (name, x)) xs in
        match
          tagged "kite_net_ring_pending"
            (instances r "kite_net_ring_pending"
            |> List.filter (fun (l, _) -> List.mem ("ring", "tx") l))
          @ tagged "kite_blk_ring_pending" (instances r "kite_blk_ring_pending")
        with
        | [] -> None
        | xs ->
            Some
              (List.fold_left
                 (fun acc (name, (labels, v)) ->
                   let v =
                     match Registry.last_sample r name labels with
                     | Some (_, sv) -> sv
                     | None -> v
                   in
                   Float.max acc v)
                 0. xs)
      in
      let q p =
        fmt_opt
          (fun ns -> Table.fmt_f (ns /. 1e3))
          (percentile r "kite_blk_latency_ns" p)
      in
      Table.add_row tbl
        [
          Registry.name r;
          fmt_opt Table.fmt_si (rate r "kite_net_tx_packets_total" ~where:frontend);
          fmt_opt Table.fmt_si (rate r "kite_net_rx_packets_total" ~where:frontend);
          fmt_opt Table.fmt_si (rate r "kite_blk_requests_total" ~where:frontend);
          fmt_opt (Table.fmt_f ~prec:0) ring;
          fmt_opt (Table.fmt_f ~prec:0) (sum_values r "kite_grant_active" ~where:any);
          fmt_opt (Table.fmt_f ~prec:0)
            (sum_values r "kite_blk_persistent_grants" ~where:any);
          q 50.;
          q 99.;
          string_of_int (List.length (Registry.alerts r));
        ])
    rs;
  Table.note tbl
    "Rates from sampled series deltas (lifetime); ring = max pending request \
     slots (net tx + blk).";
  tbl

let alerts_table rs =
  let tbl =
    Table.create ~title:"health alerts"
      ~columns:
        [
          ("machine", Table.Left);
          ("at (ms)", Table.Right);
          ("probe", Table.Left);
          ("labels", Table.Left);
          ("message", Table.Left);
        ]
  in
  List.iter
    (fun r ->
      List.iter
        (fun a ->
          Table.add_row tbl
            [
              Registry.name r;
              Table.fmt_f (float_of_int a.Registry.alert_at /. 1e6);
              a.Registry.alert_probe;
              String.concat ","
                (List.map (fun (k, v) -> k ^ "=" ^ v) a.Registry.alert_labels);
              a.Registry.alert_msg;
            ])
        (Registry.alerts r))
    rs;
  tbl

let families_table rs =
  let tbl =
    Table.create ~title:"metric families"
      ~columns:
        [
          ("machine", Table.Left);
          ("family", Table.Left);
          ("kind", Table.Left);
          ("help", Table.Left);
        ]
  in
  List.iter
    (fun r ->
      List.iter
        (fun (name, kind, help) ->
          let k =
            match kind with
            | Registry.Counter -> "counter"
            | Registry.Gauge -> "gauge"
            | Registry.Histogram -> "histogram"
          in
          Table.add_row tbl [ Registry.name r; name; k; help ])
        (Registry.families r))
    rs;
  tbl
