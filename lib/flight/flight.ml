(* The always-on flight recorder: one bounded ring of timestamped,
   cross-layer records per simulated machine, plus the trigger machinery
   that freezes the ring into incident snapshots.

   The recorder taps the existing observability layers through their
   observer hooks (Trace completed spans, Fault injections and notes,
   Registry alert edges, Report findings) and is therefore as
   cheap as they are: a layer without a tap installed pays nothing, and
   a machine without a recorder pays the usual [match None].  The ring
   keeps the most recent [limit] records, counting overwritten ones in
   [dropped] — the same "bounded, drops counted" discipline as
   [Trace.create ?limit], except a black box overwrites its oldest
   records instead of refusing new ones. *)

module Export = Kite_stats.Export
module Report = Kite_check.Report
module Trace = Kite_trace.Trace
module Fault = Kite_fault.Fault
module Registry = Kite_metrics.Registry

type record = {
  r_at : int;  (* sim ns *)
  r_layer : string;  (* "trace", "fault", "metrics", "check", "flight" *)
  r_kind : string;  (* "span", "inject", "note", "alert", "finding", ... *)
  r_key : string;
  r_msg : string;
}

let dummy_record = { r_at = 0; r_layer = ""; r_kind = ""; r_key = ""; r_msg = "" }

type trigger = Crash | Alert_edge | Finding | Manual

let trigger_name = function
  | Crash -> "crash"
  | Alert_edge -> "alert-edge"
  | Finding -> "finding"
  | Manual -> "manual"

type incident = {
  inc_seq : int;
  inc_at : int;
  inc_trigger : trigger;
  inc_reason : string;
  inc_pre : record list;  (* ring contents at trigger, oldest first *)
  mutable inc_post_rev : record list;
  mutable inc_post_n : int;
  mutable inc_post_dropped : int;
  mutable inc_open : bool;
  mutable inc_sealed_at : int;
  inc_metrics_base : (string * (string * string) list * float) list;
  mutable inc_delta : (string * (string * string) list * float * float) list;
  inc_store : (string * string) list;  (* (path, value) at trigger *)
  inc_waterfall : string list;  (* path-attribution waterfall at trigger *)
  mutable inc_slos : Slo.eval list;  (* evaluated at seal *)
}

type t = {
  fname : string;
  limit : int;
  post_limit : int;
  now : unit -> int;
  ring : record array;
  mutable head : int;  (* next write slot *)
  mutable len : int;
  mutable dropped : int;  (* records overwritten after the ring filled *)
  mutable incidents_rev : incident list;
  mutable nincidents : int;
  mutable open_inc : incident option;
  mutable reg : Registry.t option;
  mutable path : Kite_path.Path.t option;
  mutable store_src : unit -> (string * string) list;
  mutable slos_rev : Slo.t list;
  mutable slo_evals : Slo.eval list;  (* from the last seal_all *)
  manual : string option;  (* the sink's trigger, fired at teardown *)
}

let create ?(limit = 4096) ?(post_limit = 512) ?(name = "flight") ~now () =
  if limit <= 0 then invalid_arg "Flight.create: limit";
  {
    fname = name;
    limit;
    post_limit;
    now;
    ring = Array.make limit dummy_record;
    head = 0;
    len = 0;
    dropped = 0;
    incidents_rev = [];
    nincidents = 0;
    open_inc = None;
    reg = None;
    path = None;
    store_src = (fun () -> []);
    slos_rev = [];
    slo_evals = [];
    manual = None;
  }

let name t = t.fname
let dropped t = t.dropped

let records t =
  let start = if t.len < t.limit then 0 else t.head in
  List.init t.len (fun k -> t.ring.((start + k) mod t.limit))

(* ------------------------------------------------------------------ *)
(* Recording (the hot hook)                                            *)
(* ------------------------------------------------------------------ *)

let push t r =
  t.ring.(t.head) <- r;
  t.head <- (t.head + 1) mod t.limit;
  if t.len < t.limit then t.len <- t.len + 1 else t.dropped <- t.dropped + 1;
  match t.open_inc with
  | None -> ()
  | Some inc ->
      if inc.inc_post_n < t.post_limit then begin
        inc.inc_post_rev <- r :: inc.inc_post_rev;
        inc.inc_post_n <- inc.inc_post_n + 1
      end
      else inc.inc_post_dropped <- inc.inc_post_dropped + 1

let record t ~layer ~kind ~key ~msg =
  push t { r_at = t.now (); r_layer = layer; r_kind = kind; r_key = key; r_msg = msg }

let mark t ~what ~msg = record t ~layer:"flight" ~kind:"mark" ~key:what ~msg

(* ------------------------------------------------------------------ *)
(* Triggers and incidents                                              *)
(* ------------------------------------------------------------------ *)

let metrics_read t =
  match t.reg with None -> [] | Some r -> Registry.read r

let trigger t tr ~reason =
  match t.open_inc with
  | Some _ ->
      (* One incident at a time: a trigger during an open incident is
         itself evidence, not a new snapshot. *)
      record t ~layer:"flight" ~kind:"trigger-suppressed"
        ~key:(trigger_name tr) ~msg:reason
  | None ->
      let at = t.now () in
      let inc =
        {
          inc_seq = t.nincidents;
          inc_at = at;
          inc_trigger = tr;
          inc_reason = reason;
          inc_pre = records t;
          inc_post_rev = [];
          inc_post_n = 0;
          inc_post_dropped = 0;
          inc_open = true;
          inc_sealed_at = at;
          inc_metrics_base = metrics_read t;
          inc_delta = [];
          inc_store = t.store_src ();
          inc_waterfall =
            (match t.path with
            | Some p -> Kite_path.Path.waterfall_lines p
            | None -> []);
          inc_slos = [];
        }
      in
      t.incidents_rev <- inc :: t.incidents_rev;
      t.nincidents <- t.nincidents + 1;
      t.open_inc <- Some inc;
      record t ~layer:"flight" ~kind:"incident" ~key:(trigger_name tr)
        ~msg:reason

let crash t ~domain ~reason =
  record t ~layer:"flight" ~kind:"crash" ~key:domain ~msg:reason;
  trigger t Crash ~reason:(domain ^ ": " ^ reason)

let restart t ~domain ~msg =
  record t ~layer:"flight" ~kind:"restart" ~key:domain ~msg

let seal_incident t inc ~at =
  if inc.inc_open then begin
    inc.inc_open <- false;
    inc.inc_sealed_at <- at;
    (* Metrics summary delta: every instance whose scalar moved between
       trigger and seal (grant/evtchn occupancy, ring gauges, counters —
       everything the registry reads). *)
    let after = metrics_read t in
    inc.inc_delta <-
      List.filter_map
        (fun (fam, labels, v1) ->
          let v0 =
            match
              List.find_opt
                (fun (f, l, _) -> f = fam && l = labels)
                inc.inc_metrics_base
            with
            | Some (_, _, v) -> v
            | None -> 0.0
          in
          if v1 <> v0 then Some (fam, labels, v0, v1) else None)
        after;
    inc.inc_slos <- List.rev_map (fun s -> Slo.evaluate s ~at) t.slos_rev;
    match t.open_inc with
    | Some i when i == inc -> t.open_inc <- None
    | _ -> ()
  end

let seal_all t =
  let at = t.now () in
  (match t.open_inc with None -> () | Some inc -> seal_incident t inc ~at);
  t.slo_evals <- List.rev_map (fun s -> Slo.evaluate s ~at) t.slos_rev

let teardown t =
  if t.incidents_rev = [] then
    Option.iter (fun reason -> trigger t Manual ~reason) t.manual;
  mark t ~what:"teardown" ~msg:"scenario teardown";
  seal_all t

let incidents t = List.rev t.incidents_rev
let open_incident t = t.open_inc

(* ------------------------------------------------------------------ *)
(* Incident accessors                                                  *)
(* ------------------------------------------------------------------ *)

let incident_seq i = i.inc_seq
let incident_at i = i.inc_at
let incident_trigger i = i.inc_trigger
let incident_reason i = i.inc_reason
let incident_open i = i.inc_open
let incident_sealed_at i = i.inc_sealed_at
let incident_pre i = i.inc_pre
let incident_post i = List.rev i.inc_post_rev
let incident_timeline i = i.inc_pre @ List.rev i.inc_post_rev
let incident_truncated i = i.inc_post_dropped
let incident_delta i = i.inc_delta
let incident_store i = i.inc_store
let incident_slos i = i.inc_slos

(* ------------------------------------------------------------------ *)
(* SLOs                                                                *)
(* ------------------------------------------------------------------ *)

let add_slo t s = t.slos_rev <- s :: t.slos_rev
let slos t = List.rev t.slos_rev
let slo_evals t = t.slo_evals

(* ------------------------------------------------------------------ *)
(* Layer taps                                                          *)
(* ------------------------------------------------------------------ *)

let tap_trace t tr =
  Trace.add_span_observer tr (fun sp ->
      push t
        {
          r_at = sp.Trace.span_end_at;
          r_layer = "trace";
          r_kind = "span";
          r_key =
            Printf.sprintf "%s %s#%d" sp.Trace.span_kind sp.Trace.span_key
              sp.Trace.span_id;
          r_msg =
            Printf.sprintf "%d ns over %d stage(s)"
              (sp.Trace.span_end_at - sp.Trace.span_begin_at)
              (List.length sp.Trace.span_stages);
        })

let tap_fault t f =
  Fault.set_observer f
    (Some
       (function
       | Fault.Injected (p, key, n) ->
           record t ~layer:"fault" ~kind:"inject" ~key
             ~msg:(Printf.sprintf "%s #%d" (Fault.point_name p) n)
       | Fault.Noted (what, key) ->
           record t ~layer:"fault" ~kind:"note" ~key:what ~msg:key))

let tap_metrics t r =
  t.reg <- Some r;
  Registry.counter_fn r "kite_flight_dropped_total"
    [ ("flight", t.fname) ]
    (fun () -> t.dropped);
  Registry.probe r ~name:"kite_flight_dropping"
    [ ("flight", t.fname) ]
    (fun () ->
      match t.open_inc with
      | Some inc when inc.inc_post_dropped > 0 ->
          Registry.Alert
            (Printf.sprintf "%d post-trigger record(s) lost in open incident"
               inc.inc_post_dropped)
      | _ -> Registry.Healthy);
  Registry.set_alert_observer r
    (Some
       (fun a ->
         push t
           {
             r_at = a.Registry.alert_at;
             r_layer = "metrics";
             r_kind = "alert";
             r_key = a.Registry.alert_probe;
             r_msg = a.Registry.alert_msg;
           };
         trigger t Alert_edge
           ~reason:(a.Registry.alert_probe ^ ": " ^ a.Registry.alert_msg)))

let tap_path t p = t.path <- Some p

let tap_report t rep =
  Report.set_observer rep
    (Some
       (fun f ->
         record t ~layer:"check"
           ~kind:(Report.severity_to_string f.Report.severity)
           ~key:(f.Report.subsystem ^ "/" ^ f.Report.rule)
           ~msg:f.Report.message;
         if f.Report.severity = Report.Error then
           trigger t Finding
             ~reason:(f.Report.subsystem ^ "/" ^ f.Report.rule ^ ": "
                      ^ f.Report.message)))

let set_store_source t fn = t.store_src <- fn

(* ------------------------------------------------------------------ *)
(* Checker invariant                                                   *)
(* ------------------------------------------------------------------ *)

let audit t report =
  let fail severity rule message =
    Report.add report
      {
        Report.severity;
        subsystem = "flight";
        rule;
        provenance = t.fname;
        message;
      }
  in
  List.iter
    (fun inc ->
      if inc.inc_post_dropped > 0 then
        fail Report.Warning "incident-truncated"
          (Printf.sprintf
             "incident #%d (%s) lost %d post-trigger record(s): raise \
              post_limit or seal sooner"
             inc.inc_seq (trigger_name inc.inc_trigger) inc.inc_post_dropped);
      if inc.inc_open then
        fail Report.Warning "incident-unsealed"
          (Printf.sprintf "incident #%d (%s) was never sealed" inc.inc_seq
             (trigger_name inc.inc_trigger)))
    (incidents t);
  (* The ring is appended in call order against one simulated clock, so
     a backwards timestamp means a tap fed a stale time. *)
  ignore
    (List.fold_left
       (fun prev r ->
         if r.r_at < prev then
           fail Report.Error "timeline-order"
             (Printf.sprintf "record %s/%s at %d ns after %d ns" r.r_layer
                r.r_kind r.r_at prev);
         max prev r.r_at)
       min_int (records t))

(* ------------------------------------------------------------------ *)
(* Run-wide default sink                                               *)
(* ------------------------------------------------------------------ *)

type sink = {
  s_trigger : string option;
  mutable members : t list;  (* reversed *)
}

let sink ?trigger () = { s_trigger = trigger; members = [] }

let create_in s ~name ~now =
  let t = { (create ~name ~now ()) with manual = s.s_trigger } in
  s.members <- t :: s.members;
  t

let flights s = List.rev s.members

let default_ref : sink option ref = ref None
let set_default v = default_ref := v
let default () = !default_ref

(* ------------------------------------------------------------------ *)
(* JSON export                                                         *)
(* ------------------------------------------------------------------ *)

let json_num = Slo.json_num

let record_to_json r =
  Printf.sprintf
    {|{"at":%d,"layer":"%s","kind":"%s","key":"%s","msg":"%s"}|} r.r_at
    (Export.json_escape r.r_layer)
    (Export.json_escape r.r_kind)
    (Export.json_escape r.r_key)
    (Export.json_escape r.r_msg)

let labels_json labels =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) ->
           Printf.sprintf {|"%s":"%s"|} (Export.json_escape k)
             (Export.json_escape v))
         labels)
  ^ "}"

let incident_to_json inc =
  let timeline =
    String.concat "," (List.map record_to_json (incident_timeline inc))
  in
  let delta =
    String.concat ","
      (List.map
         (fun (fam, labels, v0, v1) ->
           Printf.sprintf
             {|{"family":"%s","labels":%s,"before":%s,"after":%s}|}
             (Export.json_escape fam) (labels_json labels) (json_num v0)
             (json_num v1))
         inc.inc_delta)
  in
  let store =
    String.concat ","
      (List.map
         (fun (p, v) ->
           Printf.sprintf {|{"path":"%s","value":"%s"}|} (Export.json_escape p)
             (Export.json_escape v))
         inc.inc_store)
  in
  let slos = String.concat "," (List.map Slo.eval_to_json inc.inc_slos) in
  let waterfall =
    String.concat ","
      (List.map
         (fun l -> Printf.sprintf {|"%s"|} (Export.json_escape l))
         inc.inc_waterfall)
  in
  Printf.sprintf
    {|{"seq":%d,"at":%d,"trigger":"%s","reason":"%s","open":%b,"sealed_at":%d,"truncated":%d,"timeline":[%s],"metrics_delta":[%s],"xenstore":[%s],"waterfall":[%s],"slos":[%s]}|}
    inc.inc_seq inc.inc_at
    (trigger_name inc.inc_trigger)
    (Export.json_escape inc.inc_reason) inc.inc_open inc.inc_sealed_at
    inc.inc_post_dropped timeline delta store waterfall slos

let to_json ts =
  let one t =
    Printf.sprintf
      {|{"name":"%s","limit":%d,"records":%d,"dropped":%d,"incidents":[%s],"slos":[%s]}|}
      (Export.json_escape t.fname) t.limit t.len t.dropped
      (String.concat "," (List.map incident_to_json (incidents t)))
      (String.concat "," (List.map Slo.eval_to_json t.slo_evals))
  in
  "[" ^ String.concat "," (List.map one ts) ^ "]"
