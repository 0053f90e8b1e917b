type t = { bridges : Kite_net.Bridge.t list; netback : Netback.t }

(* One bridge per physical NIC; VIFs are spread across bridges by their
   frontend's domain id ("several NICs for better I/O scaling", §3.1). *)
let run_multi ctx ~domain ~nics ~overheads ?max_queues () =
  let bridges =
    List.mapi
      (fun i nic ->
        let bridge =
          Kite_net.Bridge.create ~name:(Printf.sprintf "xenbr%d" i)
        in
        (* ifconfig: wrap and bring up the physical interface; brconfig:
           add it to the bridge. *)
        Kite_net.Bridge.add_port bridge (Netif.of_nic nic);
        bridge)
      nics
  in
  let n = List.length bridges in
  let netback =
    Netback.serve ctx ~domain ~overheads ?max_queues
      ~on_vif:(fun ~frontend ~devid vif ->
        let bridge = List.nth bridges ((frontend + devid) mod n) in
        Kite_net.Bridge.add_port bridge vif)
      ()
  in
  { bridges; netback }

let run ctx ~domain ~nic ~overheads ?max_queues () =
  run_multi ctx ~domain ~nics:[ nic ] ~overheads ?max_queues ()

let bridge t = List.hd t.bridges
let netback t = t.netback
