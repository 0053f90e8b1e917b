(* Network driver domain walkthrough: build the testbed by hand (no
   Scenario builder), run a web server in the guest and benchmark it from
   the client — the paper's Figure 8 workload in miniature.

     dune exec examples/network_domain.exe *)

open Kite_sim
open Kite_xen
open Kite_net
open Kite_drivers

let () =
  (* 1. The machine: hypervisor, Dom0, a driver domain and a guest. *)
  let hv = Hypervisor.create () in
  let ctx = Xen_ctx.create hv in
  let sched = Hypervisor.sched hv in
  let dd =
    Hypervisor.create_domain hv ~name:"netdd" ~kind:Domain.Driver_domain
      ~vcpus:1 ~mem_mb:1024
  in
  let domu =
    Hypervisor.create_domain hv ~name:"web" ~kind:Domain.Dom_u ~vcpus:4
      ~mem_mb:2048
  in

  (* 2. Physical NICs and PCI passthrough, as the artifact's
     `xl pci-assignable-add` / `xl pci-attach` would do. *)
  let server_nic = Kite_devices.Nic.create sched ~name:"ixgbe0" () in
  let client_nic = Kite_devices.Nic.create sched ~name:"client0" () in
  Kite_devices.Nic.connect server_nic client_nic ~propagation:(Time.ns 500);
  let pci = Kite_devices.Pci.create () in
  Kite_devices.Pci.register pci ~bdf:"01:00.0" (Kite_devices.Pci.Nic server_nic);
  Kite_devices.Pci.assignable_add pci ~bdf:"01:00.0";
  let nic =
    match Kite_devices.Pci.attach pci ~bdf:"01:00.0" dd with
    | Kite_devices.Pci.Nic n -> n
    | _ -> assert false
  in

  (* 3. The Kite network application: bridge + netback, one call. *)
  let app = Net_app.run ctx ~domain:dd ~nic ~overheads:Overheads.kite () in

  (* 4. Pair a frontend with the backend via the toolstack, then give the
     guest a stack on top of it. *)
  Toolstack.add_vif ctx ~backend:dd ~frontend:domu ~devid:0 ();
  let front = Netfront.create ctx ~domain:domu ~backend:dd ~devid:0 () in
  let guest_ip = Ipv4addr.of_string "192.168.50.2" in
  let guest =
    Stack.create sched ~name:"web" ~dev:(Netfront.netdev front)
      ~mac:(Macaddr.make_local 1) ~ip:guest_ip
      ~netmask:(Ipv4addr.of_string "255.255.255.0") ()
  in
  let client =
    Stack.create sched ~name:"client" ~dev:(Netif.of_nic client_nic)
      ~mac:(Macaddr.make_local 2)
      ~ip:(Ipv4addr.of_string "192.168.50.9")
      ~netmask:(Ipv4addr.of_string "255.255.255.0") ()
  in
  let guest_tcp = Tcp.attach guest in
  let client_tcp = Tcp.attach client in

  (* 5. Serve HTTP from the guest; benchmark from the client, running the
     machine until ab reports. *)
  Kite.Scenario.run hv ~what:"ab" (fun finish ->
      Process.spawn sched ~name:"orchestrate" (fun () ->
          Netfront.wait_connected front;
          ignore (Kite_apps.Httpd.start guest_tcp ~sched ());
          Printf.printf "guest web server up at %s; running ab...\n%!"
            (Ipv4addr.to_string guest_ip);
          Kite_bench_tools.Ab.run ~sched ~client_tcp ~server_ip:guest_ip
            ~requests:400 ~concurrency:8 ~file_size:65536
            ~on_done:(fun r ->
              Printf.printf
                "ab: %d requests, %.0f req/s, %.1f MB/s, mean latency %.2f ms\n"
                r.Kite_bench_tools.Ab.completed
                r.Kite_bench_tools.Ab.requests_per_sec
                r.Kite_bench_tools.Ab.throughput_mbps
                r.Kite_bench_tools.Ab.avg_latency_ms;
              finish ())
            ()));

  let bridge = Net_app.bridge app in
  Printf.printf "bridge forwarded %d frames (%d flooded)\n"
    (Bridge.forwarded bridge) (Bridge.flooded bridge)
