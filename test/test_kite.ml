(* Integration tests over the top-level scenarios and experiment
   runners — the checks behind EXPERIMENTS.md's shape claims. *)

open Kite_sim
open Kite

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Scenario plumbing                                                   *)
(* ------------------------------------------------------------------ *)

let test_network_scenario_boots () =
  let s = Scenario.network ~flavor:Scenario.Kite () in
  Testbed.run s.Scenario.hv ~what:"netfront handshake" ~within:(Time.sec 2)
    (Scenario.when_net_ready s);
  check_bool "netback instance exists" true
    (Kite_drivers.Netback.instances
       (Kite_drivers.Net_app.netback s.Scenario.net_app)
    <> []);
  (* Domain inventory matches the paper's testbed. *)
  check_int "domains: dom0 + dd + domu" 3
    (List.length (Kite_xen.Hypervisor.domains s.Scenario.hv))

let test_storage_scenario_boots () =
  let s = Scenario.storage ~flavor:Scenario.Linux () in
  Testbed.run s.Scenario.bhv ~what:"blkfront handshake" ~within:(Time.sec 2)
    (Scenario.when_blk_ready s);
  check_bool "capacity visible" true
    (Kite_drivers.Blkfront.capacity_sectors s.Scenario.blkfront > 0)

let test_scenario_blockdev_end_to_end () =
  let s = Scenario.storage ~flavor:Scenario.Kite () in
  let dev = Scenario.blockdev s in
  let ok =
    Testbed.run s.Scenario.bhv ~what:"round trip" ~within:(Time.sec 5)
      (fun finish ->
        Scenario.when_blk_ready s (fun () ->
            let data = Bytes.make 4096 'e' in
            dev.Kite_vfs.Blockdev.write ~sector:64 data;
            let back = dev.Kite_vfs.Blockdev.read ~sector:64 ~count:8 in
            finish (Bytes.equal back data)))
  in
  check_bool "write/read through the split driver" true ok;
  check_bool "reached the physical device" true
    (Kite_devices.Nvme.writes s.Scenario.nvme > 0)

(* The runner returns at [finish]'s instant with later events still
   queued, ignores a second [finish], and fails naming [what] when the
   machine goes idle first. *)
let test_scenario_run () =
  let hv = Kite_xen.Hypervisor.create () in
  let dom0 = Kite_xen.Hypervisor.dom0 hv in
  let v =
    Scenario.run hv ~what:"stop" (fun finish ->
        Kite_xen.Hypervisor.spawn hv dom0 ~name:"result" (fun () ->
            Process.sleep (Time.ms 3);
            finish (Kite_xen.Hypervisor.now hv));
        Kite_xen.Hypervisor.spawn hv dom0 ~name:"later" (fun () ->
            Process.sleep (Time.sec 1);
            finish 0))
  in
  check_int "value set at finish" (Time.ms 3) v;
  check_int "clock at finish" (Time.ms 3) (Kite_xen.Hypervisor.now hv);
  check_int "later event still queued" 1
    (Engine.pending (Kite_xen.Hypervisor.engine hv));
  Kite_xen.Hypervisor.run_for hv (Time.sec 2);
  check_int "a late finish does not stop the next run"
    (Time.ms 3 + Time.sec 2)
    (Kite_xen.Hypervisor.now hv);
  Alcotest.check_raises "idle machine"
    (Failure "idle: experiment did not complete") (fun () ->
      Scenario.run hv ~what:"idle" (fun _ -> ()))

(* With metrics armed, the registry's last sample is the runner's
   snapshot at the stop, off the sampler's 100 ms grid. *)
let test_scenario_run_final_sample () =
  let sink = Kite_metrics.Registry.sink () in
  Obs.run { Obs.none with metrics = Some sink } @@ fun () ->
  let s = Scenario.network ~flavor:Scenario.Kite () in
  let hv = s.Scenario.hv in
  let stop =
    Scenario.run hv ~what:"armed" (fun finish ->
        Scenario.when_net_ready s (fun () ->
            Process.sleep (Time.ms 250);
            finish (Kite_xen.Hypervisor.now hv)))
  in
  match Kite_metrics.Registry.registries sink with
  | [ r ] ->
      check_bool "stop off the sampling grid" true
        (stop mod Kite_metrics.Registry.interval <> 0);
      let at =
        Option.map fst
          (Kite_metrics.Registry.last_sample r "kite_sched_processes_live" [])
      in
      Alcotest.(check (option int)) "last sample at the stop" (Some stop) at
  | rs -> Alcotest.failf "expected 1 registry, got %d" (List.length rs)

(* A testbed lives for its run: once [Scenario.run] has returned, no
   pending teardown keeps its machine reachable. *)
let[@inline never] run_weakly weak =
  let s = Scenario.network ~flavor:Scenario.Kite () in
  Weak.set weak 0 (Some s.Scenario.hv);
  Scenario.run s.Scenario.hv ~what:"net" (Scenario.when_net_ready s);
  let b = Scenario.storage ~flavor:Scenario.Kite () in
  Weak.set weak 1 (Some b.Scenario.bhv);
  Scenario.run b.Scenario.bhv ~what:"blk" (Scenario.when_blk_ready b)

let test_run_frees_testbed () =
  let weak = Weak.create 2 in
  run_weakly weak;
  Gc.full_major ();
  check_bool "network testbed collected" false (Weak.check weak 0);
  check_bool "storage testbed collected" false (Weak.check weak 1)

(* The same with metrics armed: the sink keeps each machine's registry,
   and once the machine is torn down the registry keeps the values of its
   polled closures, not the closures into the machine. *)
let[@inline never] run_metered_weakly weak sink =
  Obs.run { Obs.none with metrics = Some sink } @@ fun () -> run_weakly weak

let test_run_frees_metered_testbed () =
  let sink = Kite_metrics.Registry.sink () in
  let weak = Weak.create 2 in
  run_metered_weakly weak sink;
  Gc.full_major ();
  Alcotest.(check int) "registries kept" 2
    (List.length (Kite_metrics.Registry.registries sink));
  check_bool "network testbed collected" false (Weak.check weak 0);
  check_bool "storage testbed collected" false (Weak.check weak 1)

(* A teardown that raises no longer hides: the machine's closures after
   it still run, then its [Scenario.run] raises the first failure, and
   nothing of the machine is left registered. *)
let test_teardown_failure_raised () =
  let s = Scenario.network ~flavor:Scenario.Kite () in
  let up () = Kite_drivers.Netfront.connected s.Scenario.netfront in
  let at_result = ref false and later = ref false in
  Scenario.register_teardown s.Scenario.ctx ~dd:s.Scenario.dd
    ~stop:(fun () -> failwith "backend stop failed")
    ~shutdown:ignore;
  Scenario.register_teardown s.Scenario.ctx ~dd:s.Scenario.dd ~stop:ignore
    ~shutdown:(fun () -> later := true);
  (* Also on a failure here: a failing closure left registered would
     break the next test's [teardown_all]. *)
  Fun.protect ~finally:(fun () -> try Scenario.teardown_all () with _ -> ())
  @@ fun () ->
  (match
     Scenario.run s.Scenario.hv ~what:"handshake" (fun finish ->
         Scenario.when_net_ready s (fun () -> at_result := up (); finish ()))
   with
  | () -> Alcotest.fail "a failed teardown must raise"
  | exception Process.Process_failure (_, Failure m) ->
      Alcotest.(check string) "first failure raised" "backend stop failed" m);
  check_bool "frontend connected at the result" true !at_result;
  check_bool "the teardown after the failure ran" true !later;
  check_bool "frontend shut down" false (up ());
  (* Nothing is left to run: a failing closure still registered would
     raise again. *)
  Scenario.teardown_all ()

let test_scenario_flavors_differ () =
  (* Same workload, both flavors: Kite must be strictly faster on the
     cold-latency path, and both must complete. *)
  let ping flavor =
    let s = Scenario.network ~flavor () in
    Testbed.run s.Scenario.hv ~what:"ping" ~within:(Time.sec 5) (fun finish ->
        Scenario.when_net_ready s (fun () ->
            finish
              (Kite_net.Stack.ping s.Scenario.client_stack
                 ~dst:s.Scenario.guest_ip ~seq:1 ())))
    |> Option.get
  in
  let k = ping Scenario.Kite and l = ping Scenario.Linux in
  check_bool
    (Printf.sprintf "kite (%s) < linux (%s)" (Time.to_string k)
       (Time.to_string l))
    true (k < l)

let test_overheads_override () =
  let s =
    Scenario.network ~overheads_override:Kite_drivers.Overheads.zero
      ~flavor:Scenario.Kite ()
  in
  match
    Testbed.run s.Scenario.hv ~what:"ping" ~within:(Time.sec 5) (fun finish ->
        Scenario.when_net_ready s (fun () ->
            finish
              (Kite_net.Stack.ping s.Scenario.client_stack
                 ~dst:s.Scenario.guest_ip ~seq:1 ())))
  with
  | Some span ->
      (* With zero overheads the path cost is just devices + hypercalls. *)
      check_bool "well under the kite cold latency" true (span < Time.us 120)
  | None -> Alcotest.fail "ping failed"

(* Host allocation per datagram on the split-driver Rx path (client NIC,
   bridge, netback, grant copy, netfront, guest stack): the sender builds
   each frame once, netfront copies each frame out of its Rx buffer once,
   and the guest gathers the reassembled payload once: 3 payloads.  The
   per-frame bookkeeping adds about 3 more (6.0 measured); one more copy
   of the payload fails the budget.  The per-layer copies this replaced
   made 13.2. *)
let test_rx_path_copy_budget () =
  let s = Scenario.network ~flavor:Scenario.Kite () in
  let n = 100 and size = 8192 in
  let payload = Bytes.make size 'k' in
  let got = ref 0 in
  let bytes =
    Testbed.run s.Scenario.hv ~what:"datagrams" ~within:(Time.sec 2)
      (fun finish ->
        Scenario.when_net_ready s (fun () ->
            let rx =
              Kite_net.Stack.udp_bind s.Scenario.guest_stack ~port:5001
            in
            let tx =
              Kite_net.Stack.udp_bind s.Scenario.client_stack ~port:5002
            in
            let send () =
              Kite_net.Stack.udp_send s.Scenario.client_stack tx
                ~dst:s.Scenario.guest_ip ~dst_port:5001 payload
            in
            Process.spawn s.Scenario.sched ~name:"rx" (fun () ->
                for _ = 0 to n do
                  ignore (Kite_net.Stack.udp_recv rx);
                  incr got
                done);
            (* The first datagram pays for ARP. *)
            send ();
            Process.sleep (Time.ms 1);
            Gc.minor ();
            let b0 = Gc.allocated_bytes () in
            for _ = 1 to n do
              send ();
              Process.sleep (Time.us 20)
            done;
            Process.sleep (Time.ms 1);
            Gc.minor ();
            finish (Gc.allocated_bytes () -. b0)))
  in
  check_int "all delivered" (n + 1) !got;
  let copies = bytes /. float_of_int n /. float_of_int size in
  if copies > 6.5 then
    Alcotest.failf "%.2f payload copies per datagram (budget 6.5)" copies

(* The storage path copies a block once on each side of the grant:
   caller <-> granted page in blkfront, granted page <-> media in the
   device.  Bytes allocated per 1 MiB blkfront op, in payload units,
   after a warm-up op has filled the persistent-grant pool and stored
   the sectors: a rewrite allocates no payload-sized buffer, and a
   verified read only the buffer it returns. *)
let test_blk_path_copy_budget () =
  let s = Scenario.storage ~flavor:Scenario.Kite () in
  let block = 1 lsl 20 in
  let count = block / Kite_drivers.Blkfront.sector_size in
  let data = Bytes.init block (fun i -> Char.chr (i * 7 land 0xff)) in
  let verified = ref false in
  let write, read =
    Testbed.run s.Scenario.bhv ~what:"rewrite and read" ~within:(Time.sec 2)
      (fun finish ->
        Scenario.when_blk_ready s (fun () ->
            let front = s.Scenario.blkfront in
            let payloads f =
              Gc.minor ();
              let b0 = Gc.allocated_bytes () in
              f ();
              Gc.minor ();
              (Gc.allocated_bytes () -. b0) /. float_of_int block
            in
            Kite_drivers.Blkfront.write front ~sector:0 data;
            ignore (Kite_drivers.Blkfront.read front ~sector:0 ~count);
            let write =
              payloads (fun () ->
                  Kite_drivers.Blkfront.write front ~sector:0 data)
            in
            let read =
              payloads (fun () ->
                  verified :=
                    Bytes.equal
                      (Kite_drivers.Blkfront.read front ~sector:0 ~count)
                      data)
            in
            finish (write, read)))
  in
  check_bool "read back verified" true !verified;
  if not (write <= 0.5) then
    Alcotest.failf "%.2f payloads allocated per 1 MiB rewrite (budget 0.5)"
      write;
  if not (read <= 1.5) then
    Alcotest.failf "%.2f payloads allocated per 1 MiB read (budget 1.5)" read

(* Host allocation of the storage path per ring request: one 1 MiB
   write and one verified read, 16 requests of 32 segments, after a
   warm-up pair, counted over every process that serves them.  Each
   request's segments are parsed, checked and mapped once, over arrays;
   rebuilding its segment lists at each stage, as the path did before,
   allocated 2,721 words a request here, and the arrays 1,172. *)
let blk_words_budget = 1_300.

let test_blk_path_alloc_budget () =
  let s = Scenario.storage ~flavor:Scenario.Kite () in
  let block = 1 lsl 20 in
  let count = block / Kite_drivers.Blkfront.sector_size in
  let data = Bytes.init block (fun i -> Char.chr (i * 13 land 0xff)) in
  let verified = ref false in
  let words =
    Testbed.run s.Scenario.bhv ~what:"write and read" ~within:(Time.sec 2)
      (fun finish ->
        Scenario.when_blk_ready s (fun () ->
            let front = s.Scenario.blkfront in
            Kite_drivers.Blkfront.write front ~sector:2048 data;
            ignore (Kite_drivers.Blkfront.read front ~sector:2048 ~count);
            let r0 = Kite_drivers.Blkfront.requests_issued front in
            let w0 = Gc.minor_words () in
            Kite_drivers.Blkfront.write front ~sector:0 data;
            let back = Kite_drivers.Blkfront.read front ~sector:0 ~count in
            let w1 = Gc.minor_words () in
            verified := Bytes.equal back data;
            let reqs = Kite_drivers.Blkfront.requests_issued front - r0 in
            finish ((w1 -. w0) /. float_of_int reqs)))
  in
  check_bool "read back verified" true !verified;
  if not (words <= blk_words_budget) then
    Alcotest.failf
      "%.0f minor words per ring request on the storage path (budget %.0f)"
      words blk_words_budget

(* ------------------------------------------------------------------ *)
(* Experiment registry                                                 *)
(* ------------------------------------------------------------------ *)

let test_registry_complete () =
  let ids = List.map (fun (id, _, _) -> id) Experiments.all in
  (* Every table/figure of the paper's evaluation section has a runner. *)
  List.iter
    (fun required ->
      check_bool ("registry has " ^ required) true (List.mem required ids))
    [
      "fig1a"; "fig4a"; "fig4b"; "fig4c"; "fig5"; "table3"; "fig6"; "fig7";
      "fig8a"; "fig8b"; "fig9"; "fig10"; "table4"; "fig11"; "fig12"; "fig13";
      "fig14"; "fig15"; "fig16"; "dhcp"; "table1"; "restart";
      "restart-recovery"; "scale"; "memory"; "abl-persist"; "abl-batch";
      "abl-indirect"; "abl-threads";
    ];
  check_bool "find works" true (Experiments.find "fig9" <> None);
  check_bool "find rejects junk" true (Experiments.find "fig99" = None);
  check_bool "ids unique" true
    (List.length ids = List.length (List.sort_uniq compare ids))

let run_exp id =
  match Experiments.find id with
  | Some (_, _, f) -> f ~quick:true
  | None -> Alcotest.failf "no experiment %s" id

let cell_matrix table =
  (* Parse the rendered table back into rows of trimmed cells. *)
  let lines = String.split_on_char '\n' (Kite_stats.Table.render table) in
  List.filter_map
    (fun line ->
      if String.length line > 0 && line.[0] = '|' then
        Some
          (String.split_on_char '|' line
          |> List.map String.trim
          |> List.filter (fun c -> c <> ""))
      else None)
    lines

let float_cell row i = float_of_string (List.nth row i)

let test_fig4c_boot_claim () =
  (* Claim C1: Kite boots at least 10x faster. *)
  let o = run_exp "fig4c" in
  let rows = cell_matrix (List.hd o.Experiments.tables) in
  let time_of name =
    match List.find_opt (fun r -> List.hd r = name) rows with
    | Some r -> float_cell r 1
    | None -> Alcotest.failf "missing row %s" name
  in
  let kite = time_of "kite-network" and linux = time_of "linux-driver-domain" in
  check_bool
    (Printf.sprintf "10x boot (%.1f vs %.1f)" kite linux)
    true
    (linux /. kite >= 10.0)

let test_fig6_throughput_claim () =
  (* Claim C2-throughput: both ~7 Gbps, loss under 1.5%. *)
  let o = run_exp "fig6" in
  let rows = cell_matrix (List.hd o.Experiments.tables) in
  List.iter
    (fun row ->
      match row with
      | [ _name; gbps; loss ] ->
          check_bool "about 7 Gbps" true
            (float_of_string gbps > 6.0 && float_of_string gbps < 7.5);
          check_bool "loss < 1.5%" true (float_of_string loss < 1.5)
      | _ -> ())
    (List.tl rows)

let test_fig7_latency_claim () =
  (* Kite's latency is lower than Linux's on every benchmark. *)
  let o = run_exp "fig7" in
  let rows = cell_matrix (List.hd o.Experiments.tables) in
  List.iter
    (fun row ->
      match row with
      | [ name; linux; kite ] when name <> "benchmark" ->
          check_bool (name ^ ": kite <= linux") true
            (float_of_string kite <= float_of_string linux +. 0.01)
      | _ -> ())
    rows

let test_table3_claim () =
  (* All eleven CVEs mitigated on both Kite domains. *)
  let o = run_exp "table3" in
  let rows = cell_matrix (List.hd o.Experiments.tables) in
  let cve_rows =
    List.filter (fun r -> String.length (List.hd r) > 3
                          && String.sub (List.hd r) 0 3 = "CVE") rows
  in
  check_int "eleven CVE rows" 11 (List.length cve_rows);
  List.iter
    (fun row ->
      check_bool (List.hd row ^ " mitigated everywhere") true
        (List.nth row 3 = "yes" && List.nth row 4 = "yes"))
    cve_rows

let test_abl_persistent_claim () =
  let o = run_exp "abl-persist" in
  let rows = cell_matrix (List.hd o.Experiments.tables) in
  match rows with
  | _hdr :: [ _; on_maps; _; _ ] :: [ _; off_maps; _; _ ] :: _ ->
      check_bool "persistent needs far fewer maps" true
        (int_of_string on_maps * 10 < int_of_string off_maps)
  | _ -> Alcotest.fail "unexpected table shape"

let test_scale_claim () =
  let o = run_exp "scale" in
  let rows = cell_matrix (List.hd o.Experiments.tables) in
  match rows with
  | _hdr :: [ _; one ] :: [ _; two ] :: _ ->
      let f = float_of_string two /. float_of_string one in
      check_bool (Printf.sprintf "near-linear scaling (%.2fx)" f) true
        (f > 1.8)
  | _ -> Alcotest.fail "unexpected table shape"

let test_restart_claim () =
  let o = run_exp "restart" in
  let rows = cell_matrix (List.hd o.Experiments.tables) in
  (* Outage strings like "7.006s": compare the seconds. *)
  let outage name =
    match List.find_opt (fun r -> List.hd r = name) rows with
    | Some r ->
        let s = List.nth r 3 in
        float_of_string (String.sub s 0 (String.length s - 1))
    | None -> Alcotest.failf "missing %s" name
  in
  check_bool "kite recovers 10x faster" true
    (outage "Linux" /. outage "Kite" >= 10.0)

let suite =
  [
    ("network scenario boots", `Quick, test_network_scenario_boots);
    ("storage scenario boots", `Quick, test_storage_scenario_boots);
    ("blockdev end to end", `Quick, test_scenario_blockdev_end_to_end);
    ("scenario run stops at finish", `Quick, test_scenario_run);
    ("scenario run final sample", `Quick, test_scenario_run_final_sample);
    ("teardown failure raised", `Quick, test_teardown_failure_raised);
    ("flavors differ on cold latency", `Quick, test_scenario_flavors_differ);
    ("overheads override", `Quick, test_overheads_override);
    ("rx path copy budget", `Quick, test_rx_path_copy_budget);
    ("experiment registry complete", `Quick, test_registry_complete);
    ("fig4c: 10x faster boot (C1)", `Quick, test_fig4c_boot_claim);
    ("fig6: ~7Gbps, low loss (C2)", `Slow, test_fig6_throughput_claim);
    ("fig7: kite latency lower", `Slow, test_fig7_latency_claim);
    ("table3: all CVEs mitigated", `Quick, test_table3_claim);
    ("ablation: persistent grants", `Quick, test_abl_persistent_claim);
    ("extension: multi-NIC scaling", `Slow, test_scale_claim);
    ("extension: restart recovery", `Quick, test_restart_claim);
    ("blk path copy budget", `Quick, test_blk_path_copy_budget);
    ("blk path alloc budget", `Quick, test_blk_path_alloc_budget);
    ("a run frees its testbed", `Quick, test_run_frees_testbed);
    ("a run frees its metered testbed", `Quick, test_run_frees_metered_testbed);
  ]
