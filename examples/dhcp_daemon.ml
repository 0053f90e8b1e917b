(* Daemon service VM (§5.5): a unikernelized DHCP server living in a VM
   behind the Kite network domain, benchmarked with perfdhcp.

     dune exec examples/dhcp_daemon.exe *)

open Kite_sim
open Kite

let () =
  print_endline "booting the network domain and the DHCP daemon VM...";
  let s = Scenario.network ~flavor:Scenario.Kite () in

  Scenario.run s.Scenario.hv ~what:"dhcp daemon" @@ fun finish ->
  Scenario.when_net_ready s (fun () ->
      let dhcpd =
        Kite_apps.Dhcp_server.start s.Scenario.guest_stack
          ~sched:s.Scenario.sched ~server_ip:s.Scenario.guest_ip
          ~pool_start:(Kite_net.Ipv4addr.of_string "10.0.0.100")
          ~pool_size:50 ()
      in
      print_endline "daemon up; running perfdhcp (25 clients)...";
      Kite_bench_tools.Perfdhcp.run ~sched:s.Scenario.sched
        ~client:s.Scenario.client_stack ~server_ip:s.Scenario.guest_ip
        ~clients:25 ~interval:(Time.ms 50)
        ~on_done:(fun r ->
          Printf.printf "perfdhcp: %d exchanges completed\n"
            r.Kite_bench_tools.Perfdhcp.exchanges;
          Printf.printf "  Discover -> Offer : %.3f ms average\n"
            r.Kite_bench_tools.Perfdhcp.avg_discover_offer_ms;
          Printf.printf "  Request  -> Ack   : %.3f ms average\n"
            r.Kite_bench_tools.Perfdhcp.avg_request_ack_ms;
          Printf.printf "leases active: %d\n"
            (Kite_apps.Dhcp_server.active_leases dhcpd);
          finish ())
        ())
