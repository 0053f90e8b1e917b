open Kite_sim
open Kite_net

type result = {
  requests : int;
  responses : int;
  latencies_ms : float list;
  avg_ms : float;
}

let run ~sched ~client ~server ~server_ip ?(rate_per_sec = 1000)
    ?(requests = 1000) ~on_done () =
  let port = 12865 and payload = 64 in
  (* Echo server. *)
  let ssock = Stack.udp_bind server ~port in
  Process.spawn sched ~daemon:true ~name:"netperf-server" (fun () ->
      let rec loop () =
        let src, sport, data = Stack.udp_recv ssock in
        Stack.udp_send server ssock ~dst:src ~dst_port:sport data;
        loop ()
      in
      loop ());
  Process.spawn sched ~name:"netperf-client" (fun () ->
      let csock = Stack.udp_bind client ~port:(port + 1) in
      let engine = Process.engine sched in
      let gap = Time.sec 1 / rate_per_sec in
      let lats = ref [] in
      let responses = ref 0 in
      let data = Bytes.make payload 'r' in
      for _ = 1 to requests do
        let t0 = Engine.now engine in
        Stack.udp_send client csock ~dst:server_ip ~dst_port:port data;
        (match Stack.udp_recv_timeout csock gap with
        | Some _ ->
            incr responses;
            lats := Time.to_ms_f (Engine.now engine - t0) :: !lats
        | None -> ());
        (* Even spacing: wait out the remainder of the slot. *)
        let elapsed = Engine.now engine - t0 in
        if elapsed < gap then Process.sleep (gap - elapsed)
      done;
      let latencies_ms = List.rev !lats in
      let avg_ms =
        match latencies_ms with
        | [] -> 0.0
        | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
      in
      on_done { requests; responses = !responses; latencies_ms; avg_ms })
