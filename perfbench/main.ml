(* One measurement in a fresh process, printed as one JSON object on
   stdout.  perfbench/run.py starts these children one at a time and
   aggregates them; see perfbench/README.md.

     main.exe --run-one WORKLOAD --seed N [--scale full|smoke] [--traced]
     main.exe --setup WORKLOAD
     main.exe --probes --depth D [--scale full|smoke] *)

let num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let str s = "\"" ^ Kite_flight.Slo.json_escape s ^ "\""

let obj fields =
  let field (k, v) = str k ^ ": " ^ v in
  "{" ^ String.concat ", " (List.map field fields) ^ "}"

let nums kvs = obj (List.map (fun (k, v) -> (k, num v)) kvs)

let arg name args =
  let rec find = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> find rest
    | [] -> None
  in
  find args

let usage () =
  prerr_endline
    "usage: main.exe --run-one WORKLOAD --seed N [--scale full|smoke] \
     [--traced] | --setup WORKLOAD | --probes --depth D [--scale full|smoke]";
  exit 2

let () =
  let args = Array.to_list Sys.argv in
  let number k conv d =
    Option.value ~default:d (Option.bind (arg k args) conv)
  in
  let workload k =
    match arg k args with
    | Some w when List.mem w Workload.names -> Some w
    | Some _ | None -> None
  in
  let scale =
    match arg "--scale" args with
    | None | Some "full" -> Workload.Full
    | Some "smoke" -> Workload.Smoke
    | Some _ -> usage ()
  in
  let out =
    let probes = List.mem "--probes" args in
    match (workload "--run-one", workload "--setup", probes) with
    | Some name, None, false ->
        let seed = number "--seed" int_of_string_opt 1 in
        let traced = List.mem "--traced" args in
        let r = Workload.run ~scale ~seed ~traced name in
        obj
          [
            ("workload", str name);
            ("seed", string_of_int seed);
            ("traced", string_of_bool traced);
            ("ok", string_of_bool r.Workload.ok);
            ("attempted", string_of_int r.Workload.attempted);
            ("failed", string_of_int r.Workload.failed);
            ("digest", str r.Workload.digest);
            ("metrics", nums r.Workload.metrics);
            ( "notes",
              obj (List.map (fun (k, v) -> (k, str v)) r.Workload.notes) );
          ]
    | None, Some name, false -> nums [ ("setup_s", Workload.setup name) ]
    | None, None, true ->
        let depth = number "--depth" int_of_string_opt 64 in
        let quota = if scale = Workload.Full then 0.25 else 0.01 in
        obj
          [
            ("ocaml", str Sys.ocaml_version);
            ("metrics", nums (Probe.all ~quota ~depth));
          ]
    | _ -> usage ()
  in
  print_endline out
