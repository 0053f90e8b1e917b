(* Quickstart: boot a Kite network driver domain, attach a guest, and
   ping it through the whole Xen stack.

     dune exec examples/quickstart.exe

   What happens under the hood:
     client NIC --cable--> server NIC (PCI-passthrough'd to the driver
     domain) --bridge--> netback VIF --Rx ring--> netfront --> guest stack
   and back again for the reply. *)

open Kite_sim
open Kite

let () =
  print_endline "building the testbed (Dom0 + Kite driver domain + DomU)...";
  let s = Scenario.network ~flavor:Scenario.Kite () in

  Scenario.run s.Scenario.hv ~what:"quickstart" (fun finish ->
    Scenario.when_net_ready s (fun () ->
        Printf.printf "netfront connected after %s of simulated time\n"
          (Time.to_string (Kite_xen.Hypervisor.now s.Scenario.hv));

        print_endline "pinging the guest from the client machine...";
        for seq = 1 to 5 do
          (match
             Kite_net.Stack.ping s.Scenario.client_stack
               ~dst:s.Scenario.guest_ip ~seq ()
           with
          | Some rtt ->
              Printf.printf "  64 bytes from %s: icmp_seq=%d time=%.3f ms\n"
                (Kite_net.Ipv4addr.to_string s.Scenario.guest_ip)
                seq (Time.to_ms_f rtt)
          | None -> Printf.printf "  icmp_seq=%d timed out\n" seq);
          Process.sleep (Time.sec 1)
        done;
        finish ()));

  (* Show what the packets crossed. *)
  let inst =
    List.hd (Kite_drivers.Netback.instances (Kite_drivers.Net_app.netback s.Scenario.net_app))
  in
  Printf.printf "netback forwarded %d packets to the wire and %d to the guest\n"
    (Kite_drivers.Netback.tx_packets inst)
    (Kite_drivers.Netback.rx_packets inst);
  Printf.printf "hypercalls: %d grant copies, %d event-channel sends\n"
    (Metrics.count (Kite_xen.Hypervisor.metrics s.Scenario.hv) "hypercall.grant_copy")
    (Metrics.count (Kite_xen.Hypervisor.metrics s.Scenario.hv) "hypercall.evtchn_send")
