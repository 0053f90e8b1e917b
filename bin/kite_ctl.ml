(* kite_ctl — command-line front end for the Kite reproduction.

   Mirrors the xl-flavoured workflow of the paper's artifact: list and run
   experiments, replay boots, print domain topology and security reports.

     kite_ctl list
     kite_ctl run fig9 --quick
     kite_ctl check fig7
     kite_ctl trace fig7 --out trace.json --breakdown --hypercalls
     kite_ctl faults fig11 --seed 7 --plan faults.txt
     kite_ctl top fig7 --sort rate
     kite_ctl metrics fig7 --json
     kite_ctl path fig7 --waterfall
     kite_ctl path --saturation
     kite_ctl flight restart-recovery
     kite_ctl incident restart-recovery --require incident,crash,restart,slo
     kite_ctl boot kite-network
     kite_ctl security
     kite_ctl topology --flavor kite *)

open Cmdliner
module Obs = Kite.Obs

let quick_arg =
  let doc = "Run at reduced scale (smoke pass)." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let full_arg =
  let doc = "Run the experiments at full scale (default: quick)." in
  Arg.(value & flag & info [ "full" ] ~doc)

(* The arguments several subcommands share; only the help text varies. *)
let json_arg doc = Arg.(value & flag & info [ "json" ] ~doc)
let findings_json_arg = json_arg "Emit the findings as JSON instead of text."

(* A seed count for [--sweep]: at least 1, as a sweep of none would pass
   its oracle without testing anything. *)
let sweep_count =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ ->
        Error
          (`Msg
             (Printf.sprintf "invalid value '%s', expected a positive integer"
                s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* [kite] or [linux], in any case; anything else is a usage error. *)
let flavor_arg doc =
  let flavors =
    Arg.enum [ ("kite", Kite.Scenario.Kite); ("linux", Kite.Scenario.Linux) ]
  in
  let flavor =
    Arg.conv
      ( (fun s -> Arg.conv_parser flavors (String.lowercase_ascii s)),
        Arg.conv_printer flavors )
  in
  Arg.(
    value
    & opt flavor Kite.Scenario.Kite
    & info [ "flavor" ] ~docv:"FLAVOR" ~doc)

let strict_arg =
  let doc = "Exit nonzero on warnings too, not just errors." in
  Arg.(value & flag & info [ "strict" ] ~doc)

(* The experiment-id positional: 'all' by default, unless [req]. *)
let exp_arg ?(req = false) ~purpose ~verb () =
  let doc =
    Printf.sprintf "Experiment id%s (see $(b,list)); 'all' %s everything."
      purpose verb
  in
  let pos0 = Arg.info [] ~docv:"EXPERIMENT" ~doc in
  if req then Arg.(required & pos 0 (some string) None & pos0)
  else Arg.(value & pos 0 string "all" & pos0)

let write_file path contents =
  Out_channel.with_open_text path (fun oc -> output_string oc contents)

(* The verdict check and race share: print the findings, then exit 1 on
   errors (with [strict], on warnings too). *)
let checker_verdict ~json ~strict report =
  if json then print_string (Kite_check.Report.to_json report)
  else Kite_check.Report.print report;
  let errors = Kite_check.Report.errors report in
  let warnings = Kite_check.Report.warnings report in
  if errors > 0 || (strict && warnings > 0) then exit 1;
  `Ok ()

(* Experiment selection, shared by run/check/trace: resolve [id] ('all'
   runs everything) and apply [run_one] to each selected experiment. *)
let for_experiments id run_one =
  if id = "all" then begin
    List.iter run_one Kite.Experiments.all;
    `Ok ()
  end
  else
    match Kite.Experiments.find id with
    | Some exp ->
        run_one exp;
        `Ok ()
    | None -> `Error (false, "unknown experiment " ^ id ^ "; try 'list'")

(* Run the selected experiments with [obs] installed; [Scenario.run]
   tears each testbed down at its result, so the audits see it. *)
let run_armed obs ~full ~progress id =
  Obs.run obs (fun () ->
      for_experiments id (fun (eid, _desc, f) ->
          progress eid;
          ignore (f ~quick:(not full))))

(* The progress line printed before each experiment (not with --json). *)
let say verb shown eid = if shown then Printf.printf "%s %s...\n%!" verb eid

(* Continue after a selection that succeeded. *)
let ( let* ) outcome k = match outcome with `Ok () -> k () | `Error _ as e -> e

(* ------------------------------------------------------------------ *)
(* list                                                                *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    List.iter
      (fun (id, desc, _) -> Printf.printf "%-12s %s\n" id desc)
      Kite.Experiments.all
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the available experiments.")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let run_cmd =
  let id_arg = exp_arg ~req:true ~purpose:"" ~verb:"runs" () in
  let run quick id =
    for_experiments id (fun (eid, desc, f) ->
        Printf.printf "\n### %s — %s\n%!" eid desc;
        List.iter Kite_stats.Table.print (f ~quick).Kite.Experiments.tables)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one experiment (or 'all').")
    Term.(ret (const run $ quick_arg $ id_arg))

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

let check_cmd =
  let run full strict json id =
    let report = Kite_check.Report.create () in
    let* () =
      run_armed
        { Obs.none with check = Some report }
        ~full ~progress:(say "checking" (not json)) id
    in
    checker_verdict ~json ~strict report
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run experiments under the protocol-invariant checker (grants, \
          rings, xenstore, scheduler) and report violations.")
    Term.(
      ret
        (const run $ full_arg $ strict_arg $ findings_json_arg
        $ exp_arg ~purpose:" to check" ~verb:"checks" ()))

(* ------------------------------------------------------------------ *)
(* race                                                                *)
(* ------------------------------------------------------------------ *)

let race_cmd =
  let sweep_arg =
    let doc = "Number of schedule seeds to sweep (default 1)." in
    Arg.(value & opt sweep_count 1 & info [ "sweep" ] ~docv:"N" ~doc)
  in
  let seed0_arg =
    let doc = "First schedule seed of the sweep (default 1)." in
    Arg.(value & opt int 1 & info [ "schedule-seed" ] ~docv:"SEED" ~doc)
  in
  let run full strict json sweep seed0 id =
    let report = Kite_check.Report.create () in
    (* One shared report: the race detector and the protocol checker are
       co-oracles for every schedule explored. *)
    let obs =
      {
        Obs.none with
        check = Some report;
        race = Some (Kite_race.Race.sink ~report ());
      }
    in
    let rec from s =
      if s >= seed0 + sweep then `Ok ()
      else
        let progress eid =
          if not json then
            Printf.printf "racing %s under schedule seed %d...\n%!" eid s
        in
        let* () =
          run_armed { obs with schedule_seed = Some s } ~full ~progress id
        in
        from (s + 1)
    in
    let* () = from seed0 in
    checker_verdict ~json ~strict report
  in
  Cmd.v
    (Cmd.info "race"
       ~doc:
         "Run experiments under the happens-before race detector, \
          sweeping randomized schedules ($(b,--sweep)) with the protocol \
          checker as co-oracle.")
    Term.(
      ret
        (const run $ full_arg $ strict_arg $ findings_json_arg $ sweep_arg
        $ seed0_arg
        $ exp_arg ~purpose:" to explore" ~verb:"explores" ()))

(* ------------------------------------------------------------------ *)
(* lint                                                                *)
(* ------------------------------------------------------------------ *)

let lint_cmd =
  let paths_arg =
    let doc = "Files or directories to lint (default: lib)." in
    Arg.(value & pos_all string [ "lib" ] & info [] ~docv:"PATH" ~doc)
  in
  let run json paths =
    let report = Kite_check.Report.create () in
    let linted = Kite_lint.Lint.lint_paths report paths in
    if json then print_string (Kite_check.Report.to_json report)
    else begin
      Printf.printf "linted %d files\n" linted;
      Kite_check.Report.print report
    end;
    if Kite_check.Report.errors report > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically check the sources for instrumentation discipline: \
          guarded hot hooks, paired grant map/unmap and watch/unwatch, \
          testbed teardown registration.")
    Term.(const run $ findings_json_arg $ paths_arg)

(* ------------------------------------------------------------------ *)
(* boot                                                                *)
(* ------------------------------------------------------------------ *)

let profiles =
  [
    ("kite-network", Kite_profiles.Boot.kite_network);
    ("kite-storage", Kite_profiles.Boot.kite_storage);
    ("kite-dhcp", Kite_profiles.Boot.kite_dhcp);
    ("linux", Kite_profiles.Boot.linux_driver_domain);
  ]

let boot_cmd =
  let profile_arg =
    let doc =
      "Boot profile: " ^ String.concat ", " (List.map fst profiles) ^ "."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PROFILE" ~doc)
  in
  let run name =
    match List.assoc_opt name profiles with
    | None -> `Error (false, "unknown profile " ^ name)
    | Some boot ->
        let engine = Kite_sim.Engine.create () in
        let sched = Kite_sim.Process.scheduler engine in
        Printf.printf "booting %s...\n" (Kite_profiles.Boot.name boot);
        let acc = ref 0 in
        List.iter
          (fun st ->
            acc := !acc + st.Kite_profiles.Boot.duration;
            Printf.printf "  [%6.2fs] %s\n"
              (Kite_sim.Time.to_sec_f !acc)
              st.Kite_profiles.Boot.stage_name)
          (Kite_profiles.Boot.stages boot);
        Kite_profiles.Boot.run sched boot ~on_ready:(fun at ->
            Printf.printf "ready after %s (simulated)\n"
              (Kite_sim.Time.to_string at));
        Kite_sim.Engine.run engine;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "boot" ~doc:"Replay a domain's boot sequence on the simulator.")
    Term.(ret (const run $ profile_arg))

(* ------------------------------------------------------------------ *)
(* security                                                            *)
(* ------------------------------------------------------------------ *)

let security_cmd =
  let run quick =
    List.iter
      (fun id ->
        match Kite.Experiments.find id with
        | Some (_, _, f) ->
            List.iter Kite_stats.Table.print
              (f ~quick).Kite.Experiments.tables
        | None -> ())
      [ "fig4a"; "fig4b"; "table3"; "fig5" ]
  in
  Cmd.v
    (Cmd.info "security"
       ~doc:"Print the full security report (syscalls, images, CVEs, gadgets).")
    Term.(const run $ quick_arg)

(* ------------------------------------------------------------------ *)
(* topology                                                            *)
(* ------------------------------------------------------------------ *)

let topology_cmd =
  let run flavor =
    let s = Kite.Scenario.network ~flavor () in
    Kite.Scenario.run s.Kite.Scenario.hv ~what:"topology"
      (Kite.Scenario.when_net_ready s);
    Printf.printf "domains:\n";
    List.iter
      (fun d -> Format.printf "  %a@." Kite_xen.Domain.pp d)
      (Kite_xen.Hypervisor.domains s.Kite.Scenario.hv);
    let bridge = Kite_drivers.Net_app.bridge s.Kite.Scenario.net_app in
    Printf.printf "bridge %s ports:\n" (Kite_net.Bridge.name bridge);
    List.iter
      (fun p -> Printf.printf "  %s\n" (Kite_net.Netdev.name p))
      (Kite_net.Bridge.ports bridge);
    Printf.printf "xenstore (device paths):\n";
    let xs = Kite_xen.Hypervisor.store s.Kite.Scenario.hv in
    List.iter
      (fun domid ->
        let base = Printf.sprintf "/local/domain/%s" domid in
        List.iter
          (fun sub ->
            Printf.printf "  %s/%s\n" base sub)
          (Kite_xen.Xenstore.directory xs ~path:base))
      (Kite_xen.Xenstore.directory xs ~path:"/local/domain")
  in
  Cmd.v
    (Cmd.info "topology"
       ~doc:"Boot the network testbed and print its domain/bridge topology.")
    Term.(const run $ flavor_arg "Driver-domain flavor: kite or linux.")

(* ------------------------------------------------------------------ *)
(* capture                                                             *)
(* ------------------------------------------------------------------ *)

let capture_cmd =
  let run () =
    let s = Kite.Scenario.network ~flavor:Kite.Scenario.Kite () in
    (* tcpdump on the guest's paravirtual interface. *)
    let cap =
      Kite_net.Capture.attach
        (Kite_xen.Hypervisor.engine s.Kite.Scenario.hv)
        (Kite_net.Stack.dev s.Kite.Scenario.guest_stack)
    in
    Kite.Scenario.when_net_ready s (fun () ->
        ignore
          (Kite_net.Stack.ping s.Kite.Scenario.client_stack
             ~dst:s.Kite.Scenario.guest_ip ~seq:1 ());
        let sock =
          Kite_net.Stack.udp_bind s.Kite.Scenario.client_stack ~port:40000
        in
        Kite_net.Stack.udp_send s.Kite.Scenario.client_stack sock
          ~dst:s.Kite.Scenario.guest_ip ~dst_port:9 (Bytes.of_string "probe"));
    Kite_xen.Hypervisor.run_for s.Kite.Scenario.hv (Kite_sim.Time.sec 3);
    Printf.printf "captured %d frames on the guest VIF:\n"
      (Kite_net.Capture.captured cap);
    List.iter print_endline (Kite_net.Capture.dump cap)
  in
  Cmd.v
    (Cmd.info "capture"
       ~doc:
         "Run a ping + UDP probe through the Kite network domain and dump \
          a tcpdump-style capture from the guest interface.")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* trace                                                               *)
(* ------------------------------------------------------------------ *)

let trace_cmd =
  let out_arg =
    let doc = "Write Chrome trace-event JSON to $(docv) (Perfetto-loadable)." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE.json" ~doc)
  in
  let breakdown_arg =
    let doc = "Print per-hop latency-breakdown tables for the traced spans." in
    Arg.(value & flag & info [ "breakdown" ] ~doc)
  in
  let hypercalls_arg =
    let doc = "Print the per-domain hypercall profile (xentrace-style)." in
    Arg.(value & flag & info [ "hypercalls" ] ~doc)
  in
  let fail_on_drop_arg =
    let doc =
      "Exit nonzero if any bounded trace buffer dropped events (the \
       Chrome export and the event count would be short)."
    in
    Arg.(value & flag & info [ "fail-on-drop" ] ~doc)
  in
  let run full out breakdown hypercalls fail_on_drop id =
    (* Only the JSON export and the breakdown read stored events and
       spans; the summary and the hypercall profile come from counts. *)
    let sink =
      Kite_trace.Trace.sink ~record:(out <> None || breakdown) ()
    in
    let* () =
      run_armed
        { Obs.none with trace = Some sink }
        ~full ~progress:(say "tracing" true) id
    in
    let ts = Kite_trace.Trace.traces sink in
    Kite_stats.Table.print (Kite.Trace_report.summary_table ts);
    (match out with
    | Some path ->
        write_file path (Kite_trace.Trace.to_chrome_json ts);
        Printf.printf "wrote %s (load in Perfetto or chrome://tracing)\n" path
    | None -> ());
    if breakdown then
      List.iter Kite_stats.Table.print (Kite.Trace_report.breakdown_tables ts);
    if hypercalls then
      Kite_stats.Table.print (Kite.Trace_report.hypercall_table ts);
    let lost = Kite.Trace_report.total_dropped ts in
    if fail_on_drop && lost > 0 then begin
      Printf.eprintf
        "FAIL: %d trace event(s) dropped at the buffer limit, so the Chrome \
         export and the event count are short; trace fewer experiments, or \
         drop --full\n"
        lost;
      exit 1
    end;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run experiments under the event tracer: export Chrome \
          trace-event JSON, per-hop latency breakdowns and per-domain \
          hypercall profiles.")
    Term.(
      ret
        (const run $ full_arg $ out_arg $ breakdown_arg $ hypercalls_arg
        $ fail_on_drop_arg
        $ exp_arg ~req:true ~purpose:" to trace" ~verb:"traces" ()))

(* ------------------------------------------------------------------ *)
(* faults                                                              *)
(* ------------------------------------------------------------------ *)

let faults_cmd =
  let seed_arg =
    let doc =
      "Injection seed: the same seed and plan reproduce the same faults."
    in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let plan_arg =
    let doc =
      "Read the injection plan from $(docv) (one spec per line: POINT \
       key=K first=N every=N count=N prob=F).  Default: the built-in \
       device-error plan."
    in
    Arg.(value & opt (some string) None & info [ "plan" ] ~docv:"FILE" ~doc)
  in
  let run full seed plan_file json id =
    let plan_r =
      match plan_file with
      | None -> Ok Kite_fault.Fault.default_plan
      | Some path -> (
          (* Read in a loop: the plan may arrive on a pipe or process
             substitution, where in_channel_length cannot seek. *)
          try
            let ic = open_in path in
            let b = Buffer.create 256 in
            (try
               while true do
                 Buffer.add_channel b ic 1
               done
             with End_of_file -> ());
            close_in ic;
            Kite_fault.Fault.plan_of_string (Buffer.contents b)
          with Sys_error msg -> Error msg)
    in
    match plan_r with
    | Error msg -> `Error (false, "bad plan: " ^ msg)
    | Ok plan ->
        let sink = Kite_fault.Fault.sink ~seed plan in
        let* () =
          run_armed
            { Obs.none with fault = Some sink }
            ~full ~progress:(say "injecting faults into" (not json)) id
        in
        let fs = Kite_fault.Fault.faults sink in
        if json then print_string (Kite_fault.Fault.to_json fs)
        else Kite_fault.Fault.print fs;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Run experiments under seeded fault injection (device errors, \
          dropped notifications, xenstore loss, ring corruption) and \
          report what was injected and how the drivers recovered.")
    Term.(
      ret
        (const run $ full_arg $ seed_arg $ plan_arg
        $ json_arg "Emit the injection/recovery log as JSON instead of text."
        $ exp_arg ~req:true ~purpose:" to run under fault injection"
            ~verb:"runs" ()))

(* ------------------------------------------------------------------ *)
(* metrics / top                                                       *)
(* ------------------------------------------------------------------ *)

(* Shared harness: run the selected experiments with a metrics sink
   armed (every testbed machine gets a registry and its Dom0 sampler),
   tear down, then hand the collected registries to [render]. *)
let with_metrics ~full ~progress id render =
  let sink = Kite_metrics.Registry.sink () in
  let* () =
    run_armed
      { Obs.none with metrics = Some sink }
      ~full ~progress:(say "measuring" progress) id
  in
  render (Kite_metrics.Registry.registries sink);
  `Ok ()

let metrics_id_arg = exp_arg ~purpose:" to measure" ~verb:"measures" ()

let metrics_cmd =
  let prom_arg =
    let doc =
      "Write the Prometheus text exposition of all registries to $(docv) \
       ('-' for stdout) — the same output the httpd /metrics route serves."
    in
    Arg.(value & opt (some string) None & info [ "prom" ] ~docv:"FILE" ~doc)
  in
  let list_arg =
    let doc = "Also print the registered metric families per machine." in
    Arg.(value & flag & info [ "list" ] ~doc)
  in
  let run full json prom listf id =
    with_metrics ~full ~progress:(not json && prom <> Some "-") id (fun rs ->
        if json then print_string (Kite_metrics.Registry.to_json rs)
        else begin
          Kite_stats.Table.print (Kite.Metrics_report.top_table rs);
          if listf then
            Kite_stats.Table.print (Kite.Metrics_report.families_table rs);
          if List.exists (fun r -> Kite_metrics.Registry.alerts r <> []) rs
          then Kite_stats.Table.print (Kite.Metrics_report.alerts_table rs)
        end;
        match prom with
        | None -> ()
        | Some "-" -> print_string (Kite_metrics.Registry.to_prometheus rs)
        | Some path ->
            write_file path (Kite_metrics.Registry.to_prometheus rs);
            Printf.printf "wrote %s\n" path)
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run experiments under live telemetry and dump the collected \
          registries (table, JSON or Prometheus exposition).")
    Term.(
      ret
        (const run $ full_arg
        $ json_arg "Emit every registry (values + alerts) as JSON."
        $ prom_arg $ list_arg $ metrics_id_arg))

let top_cmd =
  let sort_arg =
    let doc =
      "Sort rows descending by $(b,rate) (summed frontend tx+rx+io \
       per-second rates) or $(b,busy) (the machine's busiest histogram, \
       by observation count).  Default: build order."
    in
    let keys =
      Arg.enum
        [
          ("rate", Kite.Metrics_report.By_rate);
          ("busy", Kite.Metrics_report.By_busy);
        ]
    in
    Arg.(value & opt (some keys) None & info [ "sort" ] ~docv:"KEY" ~doc)
  in
  let run full sort id =
    with_metrics ~full ~progress:true id (fun rs ->
        Kite_stats.Table.print (Kite.Metrics_report.top_table ?sort rs);
        if List.exists (fun r -> Kite_metrics.Registry.alerts r <> []) rs then
          Kite_stats.Table.print (Kite.Metrics_report.alerts_table rs))
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "xentop-style summary: run experiments under live telemetry and \
          print per-machine throughput, ring occupancy, grant usage, \
          block latency quantiles and health alerts.")
    Term.(ret (const run $ full_arg $ sort_arg $ metrics_id_arg))

(* ------------------------------------------------------------------ *)
(* path                                                                *)
(* ------------------------------------------------------------------ *)

let path_cmd =
  let waterfall_arg =
    let doc =
      "Print only the per-stage waterfall table (skip the per-device and \
       CPU-profile tables)."
    in
    Arg.(value & flag & info [ "waterfall" ] ~doc)
  in
  let saturation_arg =
    let doc =
      "Run the $(b,latency-waterfall) experiment instead: open-loop \
       offered-load sweep over the measured storage capacity, locating \
       the knee where queueing overtakes service.  EXPERIMENT is ignored."
    in
    Arg.(value & flag & info [ "saturation" ] ~doc)
  in
  let run full waterfall saturation json id =
    if saturation then
      for_experiments "latency-waterfall" (fun (_, _, f) ->
          List.iter Kite_stats.Table.print
            (f ~quick:(not full)).Kite.Experiments.tables)
    else
      (* The engine reads the tracer's spans and CPU charges, so arm
         both sinks: every testbed machine gets a tracer and a path
         engine tapping it. *)
      let psink = Kite_path.Path.sink () in
      let* () =
        run_armed
          {
            Obs.none with
            trace = Some (Kite_trace.Trace.sink ());
            path = Some psink;
          }
          ~full ~progress:(say "attributing" (not json)) id
      in
      let ps = Kite_path.Path.paths psink in
      if json then print_string (Kite_path.Path.to_json ps)
      else begin
        Kite_stats.Table.print (Kite.Path_report.waterfall_table ps);
        if not waterfall then begin
          Kite_stats.Table.print (Kite.Path_report.devices_table ps);
          Kite_stats.Table.print (Kite.Path_report.cpu_table ps)
        end
      end;
      `Ok ()
  in
  Cmd.v
    (Cmd.info "path"
       ~doc:
         "Run experiments under critical-path attribution and print the \
          per-stage latency waterfall (queueing vs service vs \
          notification wait), per-device totals and the continuous CPU \
          profile.")
    Term.(
      ret
        (const run $ full_arg $ waterfall_arg $ saturation_arg
        $ json_arg "Emit every engine (waterfall + CPU profile) as JSON."
        $ metrics_id_arg))

(* ------------------------------------------------------------------ *)
(* flight / incident                                                   *)
(* ------------------------------------------------------------------ *)

(* Shared harness: arm every layer the recorder taps — checker (findings
   + the recorders' own audits), tracer (spans), metrics (alert edges,
   deltas), the path engine (incident waterfalls) and the flight sink
   itself — run the selected experiments, tear down, then hand the
   recorders and the shared report to [render].  No fault sink: a
   default injection plan would perturb the experiments (restart-recovery
   arms its own note-only injector when none is armed).  [trigger] is
   the sink's manual trigger, fired at each testbed's teardown. *)
let with_flight ~full ~progress ?trigger id render =
  let report = Kite_check.Report.create () in
  let fsink = Kite_flight.Flight.sink ?trigger () in
  let obs =
    {
      Obs.none with
      check = Some report;
      trace = Some (Kite_trace.Trace.sink ());
      metrics = Some (Kite_metrics.Registry.sink ());
      path = Some (Kite_path.Path.sink ());
      flight = Some fsink;
    }
  in
  let* () =
    run_armed obs ~full ~progress:(say "recording" progress) id
  in
  render (Kite_flight.Flight.flights fsink) report

let flight_cmd =
  let run full json id =
    with_flight ~full ~progress:(not json) id (fun fls report ->
        if json then print_string (Kite_flight.Flight.to_json fls)
        else begin
          Kite_stats.Table.print (Kite.Flight_report.summary_table fls);
          if List.exists (fun fl -> Kite_flight.Flight.slo_evals fl <> []) fls
          then Kite_stats.Table.print (Kite.Flight_report.slo_table fls);
          List.iter
            (fun fl ->
              List.iter
                (fun inc ->
                  print_endline (Kite.Flight_report.incident_headline fl inc))
                (Kite_flight.Flight.incidents fl))
            fls;
          if Kite_check.Report.errors report > 0 then begin
            Kite_check.Report.print report;
            exit 1
          end
        end;
        `Ok ())
  in
  Cmd.v
    (Cmd.info "flight"
       ~doc:
         "Run experiments with the always-on flight recorder armed and \
          summarize the black-box rings, incident snapshots and SLO \
          verdicts per machine.")
    Term.(
      ret
        (const run $ full_arg
        $ json_arg "Emit the recorders (rings, incidents, SLOs) as JSON."
        $ metrics_id_arg))

(* --require tokens: [incident] (at least one snapshot was frozen) and
   [slo] (some snapshot carries a scored SLO verdict) are structural;
   any other token must appear as a record kind ("crash", "restart",
   "alert", "note", ...) in some incident timeline. *)
let incident_unmet fls tokens =
  let incidents =
    List.concat_map (fun fl -> Kite_flight.Flight.incidents fl) fls
  in
  let timelines = List.map Kite_flight.Flight.incident_timeline incidents in
  let met = function
    | "incident" -> incidents <> []
    | "slo" ->
        List.exists
          (fun inc ->
            List.exists
              (fun e ->
                e.Kite_flight.Slo.ev_count > 0
                && not (Float.is_nan e.Kite_flight.Slo.ev_actual))
              (Kite_flight.Flight.incident_slos inc))
          incidents
    | kind ->
        List.exists
          (List.exists (fun r -> r.Kite_flight.Flight.r_kind = kind))
          timelines
  in
  List.filter (fun tok -> not (met tok)) tokens

let incident_cmd =
  let out_arg =
    let doc = "Also write the snapshots as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE.json" ~doc)
  in
  let trigger_arg =
    let doc =
      "Fire a manual trigger on every recorder that saw no incident, \
       while its testbed is still live — an explicit black-box pull."
    in
    Arg.(value & flag & info [ "trigger" ] ~doc)
  in
  let require_arg =
    let doc =
      "Comma-separated acceptance tokens; exit 1 unless every one is \
       present in the captured snapshots.  $(b,incident) = a snapshot \
       exists; $(b,slo) = a snapshot carries a scored SLO verdict; any \
       other token must appear as a timeline record kind (e.g. \
       $(b,crash), $(b,restart), $(b,alert))."
    in
    Arg.(value & opt (list string) [] & info [ "require" ] ~docv:"TOKENS" ~doc)
  in
  let last_arg =
    let doc = "Pre-trigger timeline rows to show per incident." in
    Arg.(value & opt int 40 & info [ "last" ] ~docv:"N" ~doc)
  in
  let run full json out trigger require last id =
    with_flight ~full ~progress:(not json)
      ?trigger:(if trigger then Some "kite_ctl incident --trigger" else None)
      id (fun fls report ->
        let js = lazy (Kite_flight.Flight.to_json fls) in
        if json then print_string (Lazy.force js)
        else begin
          Kite_stats.Table.print (Kite.Flight_report.summary_table fls);
          List.iter
            (fun fl ->
              List.iter
                (fun inc -> Kite.Flight_report.print_incident ~last fl inc)
                (Kite_flight.Flight.incidents fl))
            fls
        end;
        (match out with
        | Some path ->
            write_file path (Lazy.force js);
            if not json then Printf.printf "wrote %s\n" path
        | None -> ());
        if Kite_check.Report.errors report > 0 then begin
          Kite_check.Report.print report;
          exit 1
        end;
        match incident_unmet fls require with
        | [] -> `Ok ()
        | missing ->
            Printf.eprintf "FAIL: --require token(s) unmet: %s\n"
              (String.concat ", " missing);
            exit 1)
  in
  Cmd.v
    (Cmd.info "incident"
       ~doc:
         "Run experiments with the flight recorder armed and render every \
          frozen incident snapshot in full: correlated cross-layer \
          timeline, metrics delta, xenstore subtree and SLO verdicts.")
    Term.(
      ret
        (const run $ full_arg
        $ json_arg "Emit the full snapshots as JSON instead of rendered tables."
        $ out_arg $ trigger_arg $ require_arg $ last_arg $ metrics_id_arg))

(* ------------------------------------------------------------------ *)
(* attack                                                              *)
(* ------------------------------------------------------------------ *)

let campaigns_json_arg = json_arg "Emit the campaign results as a JSON array."

let campaigns_sweep_arg =
  let doc = "Run campaigns for seeds 1..$(docv) instead of one seed." in
  Arg.(value & opt (some sweep_count) None & info [ "sweep" ] ~docv:"N" ~doc)

let attack_cmd =
  let module Campaign = Kite_adversary.Campaign in
  let seed_arg =
    let doc = "Campaign seed (even seeds attack storage, odd network)." in
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let class_arg =
    let doc =
      "Restrict the campaign to these attack classes (comma-separated \
       slugs, e.g. $(b,bad-gref,replay,evtchn-storm))."
    in
    let module G = Kite_drivers.Guest_fault in
    let attack =
      let parse s =
        match G.of_slug s with
        | Some a -> Ok a
        | None -> Error (`Msg ("unknown attack class " ^ s))
      in
      Arg.conv (parse, fun ppf a -> Format.pp_print_string ppf (G.slug a))
    in
    Arg.(value & opt (list attack) [] & info [ "class" ] ~docv:"SLUGS" ~doc)
  in
  let run seed sweep only json =
    let only = match only with [] -> None | l -> Some l in
    let seeds =
      match sweep with
      | Some n -> List.init n (fun i -> i + 1)
      | None -> [ seed ]
    in
    let results =
      List.map
        (fun seed ->
          let r = Campaign.run ?only ~seed () in
          if not json then Format.printf "%a@." Campaign.pp_result r;
          r)
        seeds
    in
    if json then
      print_string
        ("[" ^ String.concat "," (List.map Campaign.to_json results) ^ "]\n");
    let failed = List.filter (fun r -> not r.Campaign.ok) results in
    if failed = [] then `Ok ()
    else begin
      Printf.eprintf "FAIL: %d/%d campaign(s) violated the oracle\n"
        (List.length failed) (List.length results);
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "attack"
       ~doc:
         "Run seeded byzantine-frontend attack campaigns against the \
          network and storage backends: every attack class must be \
          detected as a typed guest fault, every hostile device \
          quarantined or rejected, and the co-hosted honest guest's p99 \
          must stay within its SLO with zero checker errors.")
    Term.(
      ret
        (const run $ seed_arg $ campaigns_sweep_arg $ class_arg
       $ campaigns_json_arg))

(* ------------------------------------------------------------------ *)
(* swarm                                                               *)
(* ------------------------------------------------------------------ *)

let swarm_cmd =
  let module Swarm = Kite_swarm.Swarm in
  let clients_arg =
    let doc = "Total simulated clients (sessions) to fire." in
    Arg.(value & opt int 5_000 & info [ "clients" ] ~docv:"N" ~doc)
  in
  let profile_arg =
    let doc =
      Printf.sprintf "Traffic profile (one of %s)." Kite_swarm.Profile.names
    in
    Arg.(value & opt string "web" & info [ "profile" ] ~docv:"NAME" ~doc)
  in
  let app_arg =
    let doc = "Server application: httpd, kvstore, memcache or sqldb." in
    Arg.(value & opt string "httpd" & info [ "app" ] ~docv:"APP" ~doc)
  in
  let impair_arg =
    let doc =
      "Seeded link impairments on the cable, e.g. \
       $(b,loss=0.01,reorder=0.005,delay=200us,jitter=50us)."
    in
    Arg.(value & opt (some string) None & info [ "impair" ] ~docv:"SPEC" ~doc)
  in
  let seed_arg =
    let doc = "Swarm seed (arrivals, session shapes, think timing)." in
    Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let rate_arg =
    let doc = "Session arrival rate override (sessions/s)." in
    Arg.(value & opt (some float) None & info [ "rate" ] ~docv:"R" ~doc)
  in
  let run clients profile app flavor impair seed rate sweep json =
    let impair_v =
      match impair with
      | None -> Ok None
      | Some s -> Result.map Option.some (Kite_net.Impair.spec_of_string s)
    in
    match impair_v with
    | Error e -> `Error (false, e)
    | Ok impair -> (
        let report = Kite_check.Report.create () in
        let seeds =
          match sweep with
          | Some n -> List.init n (fun i -> i + 1)
          | None -> [ seed ]
        in
        match
          Obs.run { Obs.none with check = Some report } (fun () ->
              List.map
                (fun seed ->
                  if not json then
                    Printf.printf
                      "swarm: %d %s clients of %s traffic (seed %d)...\n%!"
                      clients app profile seed;
                  Kite.Experiments.swarm_campaign ~flavor ~app ?impair
                    ~profile ~clients ?rate ~seed ())
                seeds)
        with
        | exception (Invalid_argument e | Failure e) -> `Error (false, e)
        | results ->
            if json then
              print_string
                ("["
                ^ String.concat "," (List.map Swarm.result_to_json results)
                ^ "]\n")
            else begin
              Kite_stats.Table.print (Kite.Swarm_report.campaign_table results);
              Kite_check.Report.print report
            end;
            (* The asserted part: accounting must balance, no client may
               vanish, and the checker must stay silent.  SLO misses only
               fail the run on a clean link at the default rate — under
               --impair or an overload --rate they are the measurement. *)
            let broken =
              List.filter
                (fun (r : Swarm.result) ->
                  r.Swarm.sw_clients < clients
                  || r.Swarm.sw_completed + r.Swarm.sw_errors
                     <> r.Swarm.sw_offered)
                results
            in
            let slo_misses =
              if impair = None && rate = None then
                List.filter
                  (fun (r : Swarm.result) ->
                    List.exists
                      (fun e -> not e.Kite_flight.Slo.ev_met)
                      r.Swarm.sw_slos)
                  results
              else []
            in
            let errors = Kite_check.Report.errors report in
            if broken <> [] || slo_misses <> [] || errors > 0 then begin
              Printf.eprintf
                "FAIL: %d campaign(s) broke accounting, %d missed SLOs, %d \
                 checker error(s)\n"
                (List.length broken) (List.length slo_misses) errors;
              exit 1
            end;
            `Ok ())
  in
  Cmd.v
    (Cmd.info "swarm"
       ~doc:
         "Fire an open-loop population of simulated clients (heavy-tailed \
          arrivals, connection churn, flash crowds, drip-feed slowloris, \
          optional link impairments) at a server app through the full \
          split-driver path, and report goodput, latency percentiles and \
          SLO verdicts under a protocol checker.")
    Term.(
      ret
        (const run $ clients_arg $ profile_arg $ app_arg
        $ flavor_arg "Domain flavor: kite or linux."
        $ impair_arg $ seed_arg $ rate_arg $ campaigns_sweep_arg
        $ campaigns_json_arg))

let () =
  let info =
    Cmd.info "kite_ctl" ~version:"1.0"
      ~doc:"Drive the Kite (EuroSys'22) reproduction."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            run_cmd;
            check_cmd;
            race_cmd;
            lint_cmd;
            boot_cmd;
            security_cmd;
            topology_cmd;
            capture_cmd;
            trace_cmd;
            faults_cmd;
            metrics_cmd;
            top_cmd;
            path_cmd;
            flight_cmd;
            incident_cmd;
            attack_cmd;
            swarm_cmd;
          ]))
