module Export = Kite_stats.Export

type severity = Info | Warning | Error

let severity_to_string = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

type finding = {
  severity : severity;
  subsystem : string;
  rule : string;
  provenance : string;
  message : string;
}

type t = {
  mutable rev : finding list;
  mutable errors : int;
  mutable warnings : int;
  (* Finding observer (the flight recorder's tap); [None] keeps [add]
     on its original path. *)
  mutable obs : (finding -> unit) option;
}

let create () = { rev = []; errors = 0; warnings = 0; obs = None }

let add t f =
  t.rev <- f :: t.rev;
  (match f.severity with
  | Error -> t.errors <- t.errors + 1
  | Warning -> t.warnings <- t.warnings + 1
  | Info -> ());
  match t.obs with None -> () | Some fn -> fn f

let set_observer t obs = t.obs <- obs

let findings t = List.rev t.rev
let count t = List.length t.rev
let errors t = t.errors
let warnings t = t.warnings

let by_rule t rule = List.filter (fun f -> f.rule = rule) (findings t)

let pp ppf t =
  List.iter
    (fun f ->
      Format.fprintf ppf "%-7s [%s/%s] %s: %s@."
        (severity_to_string f.severity)
        f.subsystem f.rule f.provenance f.message)
    (findings t);
  Format.fprintf ppf "%d finding(s): %d error(s), %d warning(s)@." (count t)
    t.errors t.warnings

let print t = pp Format.std_formatter t

let to_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"findings\":[";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"severity\":\"%s\",\"subsystem\":\"%s\",\"rule\":\"%s\",\
            \"provenance\":\"%s\",\"message\":\"%s\"}"
           (severity_to_string f.severity)
           (Export.json_escape f.subsystem) (Export.json_escape f.rule)
           (Export.json_escape f.provenance) (Export.json_escape f.message)))
    (findings t);
  Buffer.add_string buf
    (Printf.sprintf "],\"errors\":%d,\"warnings\":%d}" t.errors t.warnings);
  Buffer.contents buf
