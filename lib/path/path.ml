(* Critical-path attribution over the tracer's span stages, plus the
   per-domain per-process CPU profile.  See path.mli for the model. *)

open Kite_stats

type seg_class = Queueing | Service | Notify

let class_name = function
  | Queueing -> "queueing"
  | Service -> "service"
  | Notify -> "notify"

(* The stage vocabulary is shared by net.tx and blk spans: the drivers
   name their queue-entry/dequeue hops identically, so classification is
   kind-independent.  Unknown stages are conservatively service (work we
   cannot prove was waiting). *)
let classify ~kind:_ ~stage =
  match stage with
  | "queue" | "ring" -> Queueing
  | "complete" -> Notify
  | _ -> Service

(* Histogram buckets: ns durations from sub-us hops to multi-second
   stalls; base 64 ns, factor 2 spans that in ~25 buckets. *)
let make_hist () = Histogram.create ~base:64.0 ~factor:2.0 ()

type stage_acc = {
  sa_kind : string;
  sa_stage : string;
  sa_class : seg_class;
  sa_hist : Histogram.t;
  mutable sa_n : int;
  mutable sa_total : int;
  (* Mirror into the registry when wired (kite_path_stage_ns). *)
  mutable sa_mirror : Kite_metrics.Registry.histogram option;
}

type kind_acc = {
  ka_kind : string;
  mutable ka_spans : int;
  mutable ka_total : int;
  mutable ka_mirror : Kite_metrics.Registry.counter option;
}

type dev_acc = {
  da_kind : string;
  da_key : string;
  mutable da_spans : int;
  mutable da_total : int;
}

type t = {
  pname : string;
  stages : (string * string, stage_acc) Hashtbl.t;
  mutable stage_order : (string * string) list;  (* reversed first-seen *)
  kinds : (string, kind_acc) Hashtbl.t;
  mutable kind_order : string list;  (* reversed first-seen *)
  devs : (string * string, dev_acc) Hashtbl.t;
  mutable dev_order : (string * string) list;  (* reversed first-seen *)
  mutable nspans : int;
  (* CPU profile: (domain, process) -> busy ns, added to by the tracer.
     The ref cells double as the polled counter closures once metrics
     are wired. *)
  cpu : (string * string, int ref) Hashtbl.t;
  mutable reg : Kite_metrics.Registry.t option;
}

let create ?(name = "path") () =
  {
    pname = name;
    stages = Hashtbl.create 32;
    stage_order = [];
    kinds = Hashtbl.create 4;
    kind_order = [];
    devs = Hashtbl.create 8;
    dev_order = [];
    nspans = 0;
    cpu = Hashtbl.create 32;
    reg = None;
  }

let name t = t.pname

(* ------------------------------------------------------------------ *)
(* Accumulator lookup                                                  *)
(* ------------------------------------------------------------------ *)

let stage_acc t ~kind ~stage =
  let k = (kind, stage) in
  match Hashtbl.find_opt t.stages k with
  | Some sa -> sa
  | None ->
      let cls = classify ~kind ~stage in
      let sa =
        {
          sa_kind = kind;
          sa_stage = stage;
          sa_class = cls;
          sa_hist = make_hist ();
          sa_n = 0;
          sa_total = 0;
          sa_mirror = None;
        }
      in
      (match t.reg with
      | Some r ->
          sa.sa_mirror <-
            Some
              (Kite_metrics.Registry.histogram r
                 ~help:"Per-stage critical-path latency (simulated ns)"
                 ~base:64.0 ~factor:2.0 "kite_path_stage_ns"
                 [
                   ("kind", kind); ("stage", stage);
                   ("class", class_name cls);
                 ])
      | None -> ());
      Hashtbl.add t.stages k sa;
      t.stage_order <- k :: t.stage_order;
      sa

let kind_acc t kind =
  match Hashtbl.find_opt t.kinds kind with
  | Some ka -> ka
  | None ->
      let ka = { ka_kind = kind; ka_spans = 0; ka_total = 0; ka_mirror = None } in
      (match t.reg with
      | Some r ->
          ka.ka_mirror <-
            Some
              (Kite_metrics.Registry.counter r
                 ~help:"Completed spans attributed" "kite_path_spans_total"
                 [ ("kind", kind) ])
      | None -> ());
      Hashtbl.add t.kinds kind ka;
      t.kind_order <- kind :: t.kind_order;
      ka

let dev_acc t ~kind ~key =
  let k = (kind, key) in
  match Hashtbl.find_opt t.devs k with
  | Some da -> da
  | None ->
      let da = { da_kind = kind; da_key = key; da_spans = 0; da_total = 0 } in
      Hashtbl.add t.devs k da;
      t.dev_order <- k :: t.dev_order;
      da

(* ------------------------------------------------------------------ *)
(* Tracer observers                                                    *)
(* ------------------------------------------------------------------ *)

let record_span t (sp : Kite_trace.Trace.span) =
  let kind = sp.Kite_trace.Trace.span_kind in
  List.iter
    (fun (stage, start, stop) ->
      let dur = stop - start in
      let sa = stage_acc t ~kind ~stage in
      sa.sa_n <- sa.sa_n + 1;
      sa.sa_total <- sa.sa_total + dur;
      Histogram.add sa.sa_hist (float_of_int dur);
      match sa.sa_mirror with
      | Some h -> Kite_metrics.Registry.observe h (float_of_int dur)
      | None -> ())
    sp.Kite_trace.Trace.span_stages;
  let total =
    sp.Kite_trace.Trace.span_end_at - sp.Kite_trace.Trace.span_begin_at
  in
  let ka = kind_acc t kind in
  ka.ka_spans <- ka.ka_spans + 1;
  ka.ka_total <- ka.ka_total + total;
  (match ka.ka_mirror with
  | Some c -> Kite_metrics.Registry.inc c
  | None -> ());
  let da = dev_acc t ~kind ~key:sp.Kite_trace.Trace.span_key in
  da.da_spans <- da.da_spans + 1;
  da.da_total <- da.da_total + total;
  t.nspans <- t.nspans + 1

(* The CPU observer: the tracer asks for a (domain, process) cell once
   per process and domain, and adds each charge to it. *)
let cpu_cell t ~domain ~process =
  let k = (domain, process) in
  match Hashtbl.find_opt t.cpu k with
  | Some c -> c
  | None ->
      let c = ref 0 in
      Hashtbl.add t.cpu k c;
      (match t.reg with
      | Some r ->
          Kite_metrics.Registry.counter_fn r "kite_path_cpu_ns_total"
            ~help:"Simulated CPU attributed per domain per process"
            [ ("domain", domain); ("process", process) ]
            (fun () -> !c)
      | None -> ());
      c

(* ------------------------------------------------------------------ *)
(* Wiring                                                              *)
(* ------------------------------------------------------------------ *)

let tap_trace t tr =
  Kite_trace.Trace.add_span_observer tr (record_span t);
  Kite_trace.Trace.observe_cpu tr (cpu_cell t)

let wire_metrics t r = t.reg <- Some r

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

type stage_stat = {
  st_kind : string;
  st_stage : string;
  st_class : seg_class;
  st_n : int;
  st_total_ns : int;
  st_p50 : float;
  st_p99 : float;
}

let stage_stats t =
  (* Kinds in first-seen order, each kind's stages in first-seen order —
     traversal order, because stages are first seen in stage order. *)
  let order = List.rev t.stage_order in
  List.concat_map
    (fun kind ->
      List.filter_map
        (fun (k, s) ->
          if k <> kind then None
          else
            let sa = Hashtbl.find t.stages (k, s) in
            Some
              {
                st_kind = sa.sa_kind;
                st_stage = sa.sa_stage;
                st_class = sa.sa_class;
                st_n = sa.sa_n;
                st_total_ns = sa.sa_total;
                st_p50 =
                  (if sa.sa_n = 0 then 0.0 else Histogram.percentile sa.sa_hist 50.0);
                st_p99 =
                  (if sa.sa_n = 0 then 0.0 else Histogram.percentile sa.sa_hist 99.0);
              })
        order)
    (List.rev t.kind_order)

let spans_seen t = t.nspans

let span_count t ~kind =
  match Hashtbl.find_opt t.kinds kind with Some ka -> ka.ka_spans | None -> 0

let span_total_ns t ~kind =
  match Hashtbl.find_opt t.kinds kind with Some ka -> ka.ka_total | None -> 0

let class_total_ns t ~kind cls =
  Hashtbl.fold
    (fun (k, _) sa acc ->
      if k = kind && sa.sa_class = cls then acc + sa.sa_total else acc)
    t.stages 0

let devices t =
  List.rev_map
    (fun k ->
      let da = Hashtbl.find t.devs k in
      (da.da_kind, da.da_key, da.da_spans, da.da_total))
    t.dev_order

let profile t =
  Hashtbl.fold (fun (d, p) c acc -> (d, p, !c) :: acc) t.cpu []
  |> List.sort (fun (d, p, a) (d', p', b) ->
         match Int.compare b a with
         | 0 -> (
             match String.compare d d' with 0 -> String.compare p p' | c -> c)
         | c -> c)

let cpu_total_ns t = Hashtbl.fold (fun _ c acc -> acc + !c) t.cpu 0

let waterfall_lines t =
  let lines =
    List.map
      (fun st ->
        Printf.sprintf "%s/%s [%s] n=%d p50=%.1fus p99=%.1fus total=%.2fms"
          st.st_kind st.st_stage (class_name st.st_class) st.st_n
          (st.st_p50 /. 1e3) (st.st_p99 /. 1e3)
          (float_of_int st.st_total_ns /. 1e6))
      (stage_stats t)
  in
  let totals =
    List.rev_map
      (fun kind ->
        let ka = Hashtbl.find t.kinds kind in
        Printf.sprintf "%s TOTAL n=%d total=%.2fms queueing=%.2fms service=%.2fms notify=%.2fms"
          kind ka.ka_spans
          (float_of_int ka.ka_total /. 1e6)
          (float_of_int (class_total_ns t ~kind Queueing) /. 1e6)
          (float_of_int (class_total_ns t ~kind Service) /. 1e6)
          (float_of_int (class_total_ns t ~kind Notify) /. 1e6))
      t.kind_order
  in
  lines @ totals

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let one_to_json t =
  let stages =
    stage_stats t
    |> List.map (fun st ->
           Printf.sprintf
             {|{"kind":"%s","stage":"%s","class":"%s","n":%d,"total_ns":%d,"p50_ns":%.0f,"p99_ns":%.0f}|}
             (Export.json_escape st.st_kind) (Export.json_escape st.st_stage)
             (class_name st.st_class) st.st_n st.st_total_ns st.st_p50
             st.st_p99)
    |> String.concat ","
  in
  let kinds =
    List.rev t.kind_order
    |> List.map (fun kind ->
           let ka = Hashtbl.find t.kinds kind in
           Printf.sprintf
             {|{"kind":"%s","spans":%d,"total_ns":%d,"queueing_ns":%d,"service_ns":%d,"notify_ns":%d}|}
             (Export.json_escape kind) ka.ka_spans ka.ka_total
             (class_total_ns t ~kind Queueing)
             (class_total_ns t ~kind Service)
             (class_total_ns t ~kind Notify))
    |> String.concat ","
  in
  let devs =
    devices t
    |> List.map (fun (kind, key, n, total) ->
           Printf.sprintf {|{"kind":"%s","key":"%s","spans":%d,"total_ns":%d}|}
             (Export.json_escape kind) (Export.json_escape key) n total)
    |> String.concat ","
  in
  let prof =
    profile t
    |> List.map (fun (d, p, ns) ->
           Printf.sprintf {|{"domain":"%s","process":"%s","busy_ns":%d}|}
             (Export.json_escape d) (Export.json_escape p) ns)
    |> String.concat ","
  in
  Printf.sprintf
    {|{"name":"%s","spans":%d,"stages":[%s],"kinds":[%s],"devices":[%s],"cpu_total_ns":%d,"profile":[%s]}|}
    (Export.json_escape t.pname) t.nspans stages kinds devs (cpu_total_ns t)
    prof

let to_json ts = "[" ^ String.concat "," (List.map one_to_json ts) ^ "]"

(* ------------------------------------------------------------------ *)
(* Run-wide default sink                                               *)
(* ------------------------------------------------------------------ *)

type sink = { mutable members : t list (* reversed *) }

let sink () = { members = [] }

let create_in s ~name =
  let t = create ~name () in
  s.members <- t :: s.members;
  t

let paths s = List.rev s.members

let default_sink : sink option ref = ref None
let set_default s = default_sink := s
let default () = !default_sink
