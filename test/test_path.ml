(* kite_path: stage classification, span decomposition arithmetic, the
   CPU profile fed by the tracer, and the partition invariant — the
   per-stage totals of every kind must sum to its end-to-end span total
   — held under multi-queue dataplanes and driver-domain crash/restart,
   swept across ten seeds. *)

open Kite_sim
open Kite
module Path = Kite_path.Path
module Trace = Kite_trace.Trace

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

let test_classify () =
  let cls kind stage = Path.class_name (Path.classify ~kind ~stage) in
  (* The queueing stages: waiting for capacity. *)
  check_bool "queue is queueing" true (cls "net.tx" "queue" = "queueing");
  check_bool "ring is queueing" true (cls "blk" "ring" = "queueing");
  (* The notification wait: a completion parked until the evtchn fires. *)
  check_bool "complete is notify" true (cls "blk" "complete" = "notify");
  (* Everything else is work done on the request's behalf. *)
  List.iter
    (fun st -> check_bool (st ^ " is service") true (cls "blk" st = "service"))
    [ "frontend"; "backend"; "map"; "device"; "deliver"; "whatever" ]

(* ------------------------------------------------------------------ *)
(* Span decomposition on a hand-built tracer                           *)
(* ------------------------------------------------------------------ *)

let test_span_decomposition () =
  let tr = Trace.create ~name:"unit" () in
  let p = Path.create ~name:"unit" () in
  Path.tap_trace p tr;
  (* Two spans of the same kind on distinct devices: stages 100 + 300 +
     600 = 1000 ns each, known classes. *)
  List.iter
    (fun (key, id) ->
      Trace.span_begin tr ~at:0 ~kind:"k" ~key ~id ~stage:"frontend";
      Trace.span_hop tr ~at:100 ~kind:"k" ~key ~id ~stage:"queue" ~args:[];
      Trace.span_hop tr ~at:400 ~kind:"k" ~key ~id ~stage:"complete" ~args:[];
      Trace.span_end tr ~at:1000 ~kind:"k" ~key ~id)
    [ ("dev0", 1); ("dev1", 2) ];
  check_int "spans seen" 2 (Path.spans_seen p);
  check_int "kind count" 2 (Path.span_count p ~kind:"k");
  check_int "end-to-end total" 2000 (Path.span_total_ns p ~kind:"k");
  (* Stage totals partition the end-to-end total exactly. *)
  let stats = List.filter (fun s -> s.Path.st_kind = "k") (Path.stage_stats p) in
  check_int "three stages" 3 (List.length stats);
  check_int "stage sum = span total" 2000
    (List.fold_left (fun a s -> a + s.Path.st_total_ns) 0 stats);
  (* And so do the class totals. *)
  check_int "service ns" 200 (Path.class_total_ns p ~kind:"k" Path.Service);
  check_int "queueing ns" 600 (Path.class_total_ns p ~kind:"k" Path.Queueing);
  check_int "notify ns" 1200 (Path.class_total_ns p ~kind:"k" Path.Notify);
  (* Per-device attribution splits the same total by key. *)
  (match Path.devices p with
  | [ ("k", "dev0", 1, 1000); ("k", "dev1", 1, 1000) ] -> ()
  | ds -> Alcotest.failf "unexpected device rows (%d)" (List.length ds));
  (* The incident-snapshot rendering mentions every stage and a TOTAL. *)
  let lines = Path.waterfall_lines p in
  check_bool "waterfall non-empty" true (lines <> []);
  let mentions needle =
    List.exists
      (fun line ->
        let nh = String.length line and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub line i nn = needle || go (i + 1))
        in
        go 0)
      lines
  in
  List.iter
    (fun needle -> check_bool ("waterfall mentions " ^ needle) true (mentions needle))
    [ "k"; "frontend"; "queue"; "complete"; "TOTAL" ]

(* ------------------------------------------------------------------ *)
(* CPU profiler attribution stack                                      *)
(* ------------------------------------------------------------------ *)

(* The tracer's running process and its CPU charges, read by the path
   engine that taps it, alike on a recording and a counting tracer. *)
let test_cpu_profiler () =
  List.iter
    (fun (mode, tr) ->
      let p = Path.create () in
      Path.tap_trace p tr;
      let work domain cost = Trace.cpu_work tr ~at:0 ~domain ~cost in
      let check_int what = check_int (mode ^ ": " ^ what) in
      (* Outside any process: charged to the interrupt bucket. *)
      work "dom" 5;
      Trace.proc_enter tr (Trace.proc ~name:"dom/worker");
      work "dom" 40;
      (* Nested entry wins until it leaves. *)
      Trace.proc_enter tr (Trace.proc ~name:"dom/helper");
      work "dom" 10;
      Trace.proc_leave tr;
      work "dom" 20;
      Trace.proc_leave tr;
      check_int "total busy" 75 (Path.cpu_total_ns p);
      let busy proc =
        match
          List.find_opt
            (fun (d, pr, _) -> d = "dom" && pr = proc)
            (Path.profile p)
        with
        | Some (_, _, b) -> b
        | None -> 0
      in
      (* The "Domain/" prefix is stripped: the hypervisor supplies the
         domain separately, so only the thread part is kept. *)
      check_int "worker busy" 60 (busy "worker");
      check_int "helper busy" 10 (busy "helper");
      check_int "interrupt busy" 5 (busy "(interrupt)");
      (* Busiest first. *)
      (match Path.profile p with
      | (_, first, _) :: _ -> check_bool (mode ^ ": sorted") true (first = "worker")
      | [] -> Alcotest.fail "empty profile");
      (* One entered process charged alternately in two domains, one of
         them named by a distinct but equal string: each domain keeps one
         row for it, whichever string names the domain. *)
      let dom = "dom" and peer = "peer" in
      let dom' = String.concat "" [ "d"; "om" ] in
      Trace.proc_enter tr (Trace.proc ~name:"dom/mover");
      List.iter
        (fun (domain, cost) -> work domain cost)
        [ (dom, 1); (peer, 2); (dom', 4); (dom', 8); (peer, 16); (dom, 32) ];
      Trace.proc_leave tr;
      let busy_in domain proc =
        List.fold_left
          (fun acc (d, pr, b) ->
            if d = domain && pr = proc then acc + b else acc)
          0 (Path.profile p)
      in
      check_int "mover in dom" 45 (busy_in "dom" "mover");
      check_int "mover in peer" 18 (busy_in "peer" "mover");
      check_int "one row per (domain, process)" 5
        (List.length (Path.profile p));
      check_int "total busy with the mover" 138 (Path.cpu_total_ns p))
    [
      ("recording", Trace.create ());
      ("counting", Trace.create_in (Trace.sink ()) ~name:"counting");
    ]

(* ------------------------------------------------------------------ *)
(* Partition invariant under multi-queue and crash/restart, 10 seeds   *)
(* ------------------------------------------------------------------ *)

(* Per-stage totals must sum to the kind's end-to-end total within 1% —
   the same acceptance bar the latency-waterfall experiment enforces. *)
let assert_partition p ~ctx =
  let stats = Path.stage_stats p in
  let kinds =
    List.fold_left
      (fun acc s -> if List.mem s.Path.st_kind acc then acc else s.Path.st_kind :: acc)
      [] stats
  in
  check_bool (ctx ^ ": spans observed") true (Path.spans_seen p > 0);
  List.iter
    (fun kind ->
      let span_total = Path.span_total_ns p ~kind in
      let stage_sum =
        List.fold_left
          (fun a s -> if s.Path.st_kind = kind then a + s.Path.st_total_ns else a)
          0 stats
      in
      let delta =
        abs_float (float_of_int (stage_sum - span_total))
        /. float_of_int (max 1 span_total)
      in
      if delta > 0.01 then
        Alcotest.failf "%s: %s stage sum %d vs span total %d (%.2f%% off)" ctx
          kind stage_sum span_total (100. *. delta);
      (* Class totals are a coarsening of the same partition. *)
      let cls_sum =
        Path.class_total_ns p ~kind Path.Queueing
        + Path.class_total_ns p ~kind Path.Service
        + Path.class_total_ns p ~kind Path.Notify
      in
      check_int (ctx ^ ": class totals partition " ^ kind) stage_sum cls_sum)
    kinds

(* The network sweep drives its machine through a fixed 5 s window and
   never to a result, so no run tears it down: [teardown_all] does. *)
let with_sinks f =
  let psink = Path.sink () in
  Kite.Obs.run
    { Kite.Obs.none with trace = Some (Trace.sink ()); path = Some psink }
    (fun () -> Fun.protect ~finally:Scenario.teardown_all f);
  psink

let storage_sweep ~num_queues ~crash () =
  let ctx = Printf.sprintf "blk queues=%d crash=%b" num_queues crash in
  let psink =
    with_sinks (fun () ->
        let s = Scenario.storage ~flavor:Scenario.Kite ~num_queues () in
        let restored = ref (not crash) in
        Scenario.run s.Scenario.bhv ~what:ctx (fun finish ->
            Scenario.when_blk_ready s (fun () ->
                if crash then
                  Scenario.crash_and_restart_blk s ~flavor:Scenario.Kite
                    ~at:(Time.ms 2)
                    ~on_restored:(fun ~downtime:_ -> restored := true)
                    ();
                let front = s.Scenario.blkfront in
                for k = 0 to 31 do
                  let data = Bytes.make Kite_drivers.Blkfront.sector_size 'p' in
                  Kite_drivers.Blkfront.write front ~sector:k data
                done;
                while not !restored do
                  Process.sleep (Time.ms 1)
                done;
                finish ())))
  in
  match Path.paths psink with
  | [ p ] ->
      assert_partition p ~ctx;
      check_int (ctx ^ ": one blk span per write") 32 (Path.span_count p ~kind:"blk");
      (* The scheduler sampler attributed the run's simulated CPU. *)
      check_bool (ctx ^ ": cpu profiled") true (Path.cpu_total_ns p > 0);
      check_bool (ctx ^ ": profile names processes") true
        (List.exists (fun (_, pr, b) -> pr <> "(interrupt)" && b > 0) (Path.profile p))
  | ps -> Alcotest.failf "%s: expected 1 engine, got %d" ctx (List.length ps)

let network_sweep ~num_queues () =
  let ctx = Printf.sprintf "net queues=%d" num_queues in
  let psink =
    with_sinks (fun () ->
        let s = Scenario.network ~flavor:Scenario.Kite ~num_queues () in
        Scenario.when_net_ready s (fun () ->
            for seq = 1 to 8 do
              ignore
                (Kite_net.Stack.ping s.Scenario.client_stack
                   ~dst:s.Scenario.guest_ip ~seq ())
            done);
        Kite_xen.Hypervisor.run_for s.Scenario.hv (Time.sec 5))
  in
  match Path.paths psink with
  | [ p ] ->
      assert_partition p ~ctx;
      check_bool (ctx ^ ": net.tx spans decomposed") true
        (Path.span_count p ~kind:"net.tx" > 0)
  | ps -> Alcotest.failf "%s: expected 1 engine, got %d" ctx (List.length ps)

let test_partition_sweep () =
  (* Each distinct machine once: a storage testbed is fixed by its queue
     count and whether it crashes (it has no seed), so these six are every
     machine a seed sweep could build; an unimpaired network testbed is
     fixed by its queue count. *)
  List.iter
    (fun num_queues ->
      List.iter
        (fun crash -> storage_sweep ~num_queues ~crash ())
        [ false; true ])
    [ 1; 2; 4 ];
  network_sweep ~num_queues:1 ();
  network_sweep ~num_queues:4 ()

(* ------------------------------------------------------------------ *)
(* JSON export                                                         *)
(* ------------------------------------------------------------------ *)

let test_json_export () =
  let tr = Trace.create () in
  let p = Path.create ~name:"j" () in
  Path.tap_trace p tr;
  Trace.span_begin tr ~at:0 ~kind:"k" ~key:"d" ~id:1 ~stage:"frontend";
  Trace.span_end tr ~at:10 ~kind:"k" ~key:"d" ~id:1;
  Trace.cpu_work tr ~at:10 ~domain:"dom" ~cost:3;
  let json = Path.to_json [ p ] in
  check_bool "json is an array" true
    (String.length json > 0 && json.[0] = '[');
  (* Balanced braces — a cheap well-formedness smoke. *)
  let depth = ref 0 in
  String.iter
    (fun c -> if c = '{' || c = '[' then incr depth
      else if c = '}' || c = ']' then decr depth)
    json;
  check_int "balanced brackets" 0 !depth

(* ------------------------------------------------------------------ *)
(* The profile counts every vCPU occupancy once                        *)
(* ------------------------------------------------------------------ *)

(* Every vCPU occupancy the hypervisor charges reaches the profile
   exactly once: read at one instant inside the run, the engine's CPU
   total equals the machine's busy time summed over its domains. *)
let test_profile_counts_occupancy () =
  let totals hv (xctx : Kite_drivers.Xen_ctx.t) =
    let m = Kite_xen.Hypervisor.metrics hv in
    ( List.fold_left
        (fun acc k -> acc + Kite_sim.Metrics.busy m k)
        0
        (Kite_sim.Metrics.busy_names m),
      Path.cpu_total_ns (Option.get xctx.Kite_drivers.Xen_ctx.path) )
  in
  let check_once ~ctx (busy, profiled) =
    check_bool (ctx ^ ": vCPUs busy") true (busy > 0);
    check_int (ctx ^ ": profile total = vCPU busy time") busy profiled
  in
  List.iter
    (fun flavor ->
      let ctx = "net " ^ Scenario.flavor_name flavor in
      ignore
        (with_sinks (fun () ->
             let s = Scenario.network ~flavor () in
             check_once ~ctx
               (Scenario.run s.Scenario.hv ~what:ctx (fun finish ->
                    Scenario.when_net_ready s (fun () ->
                        for seq = 1 to 8 do
                          ignore
                            (Kite_net.Stack.ping s.Scenario.client_stack
                               ~dst:s.Scenario.guest_ip ~seq ())
                        done;
                        finish (totals s.Scenario.hv s.Scenario.ctx)))))))
    [ Scenario.Kite; Scenario.Linux ];
  let ctx = "blk Kite" in
  ignore
    (with_sinks (fun () ->
         let s = Scenario.storage ~flavor:Scenario.Kite () in
         check_once ~ctx
           (Scenario.run s.Scenario.bhv ~what:ctx (fun finish ->
                Scenario.when_blk_ready s (fun () ->
                    for k = 0 to 31 do
                      Kite_drivers.Blkfront.write s.Scenario.blkfront
                        ~sector:k
                        (Bytes.make Kite_drivers.Blkfront.sector_size 'p')
                    done;
                    finish (totals s.Scenario.bhv s.Scenario.bctx))))))

let suite =
  [
    ("stage classification", `Quick, test_classify);
    ("span decomposition", `Quick, test_span_decomposition);
    ("cpu profiler stack", `Quick, test_cpu_profiler);
    ("partition invariant sweep", `Quick, test_partition_sweep);
    ("json export", `Quick, test_json_export);
    ("profile counts every occupancy once", `Quick, test_profile_counts_occupancy);
  ]
