open Kite_sim
open Kite_net

type result = {
  sent : int;
  received : int;
  throughput_gbps : float;
  loss_pct : float;
}

let run ~sched ~client ~server ~server_ip ?(port = 5001)
    ?(offered_gbps = 7.0) ~duration ~on_done () =
  let payload = 8192 in
  let received = ref 0 in
  let sent = ref 0 in
  (* Receiver: drain datagrams, count them. *)
  let sock_server = Stack.udp_bind server ~port in
  Process.spawn sched ~daemon:true ~name:"nuttcp-rx" (fun () ->
      let rec loop () =
        let _ = Stack.udp_recv sock_server in
        incr received;
        loop ()
      in
      loop ());
  (* Sender: paced bursts.  Send a burst every 100 us to amortize the
     pacing arithmetic, like nuttcp's internal burst clock. *)
  Process.spawn sched ~name:"nuttcp-tx" (fun () ->
      let sock = Stack.udp_bind client ~port:(port + 1) in
      let tick = Time.us 100 in
      let datagrams_per_tick =
        offered_gbps *. 1e9 /. 8.0 *. Time.to_sec_f tick
        /. float_of_int payload
      in
      let data = Bytes.make payload 'u' in
      let deadline = Engine.now (Process.engine sched) + duration in
      (* Fractional datagrams carry over between ticks so the offered rate
         is exact regardless of payload size. *)
      let credit = ref 0.0 in
      let rec loop () =
        if Engine.now (Process.engine sched) < deadline then begin
          credit := !credit +. datagrams_per_tick;
          while !credit >= 1.0 do
            Stack.udp_send client sock ~dst:server_ip ~dst_port:port data;
            incr sent;
            credit := !credit -. 1.0
          done;
          Process.sleep tick;
          loop ()
        end
      in
      loop ();
      (* Allow in-flight datagrams to drain before reporting. *)
      Process.sleep (Time.ms 50);
      let recvd = !received in
      let gbps =
        float_of_int (recvd * payload * 8) /. Time.to_sec_f duration /. 1e9
      in
      let loss =
        if !sent = 0 then 0.0
        else 100.0 *. float_of_int (!sent - recvd) /. float_of_int !sent
      in
      on_done
        { sent = !sent; received = recvd; throughput_gbps = gbps; loss_pct = loss })
