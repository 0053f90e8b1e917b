open Kite_sim
open Kite_net

type result = {
  set_ops_per_sec : float;
  get_ops_per_sec : float;
  total_ops : int;
}

type phase = Set_phase | Get_phase

let run ~sched ~client_tcp ~server_ip ?(pipeline = 1000)
    ?(ops_per_thread = 20_000) ?(seed = 1) ?(value_size = 64) ~threads ~on_done
    () =
  let engine = Process.engine sched in
  let value = String.make value_size 'x' in
  let phase_done = ref 0 in
  let set_rate = ref 0.0 in
  let get_rate = ref 0.0 in
  let run_phase phase after =
    let finished = ref 0 in
    let t0 = Engine.now engine in
    for th = 1 to threads do
      Process.spawn sched ~name:(Printf.sprintf "redis-bench-%d" th)
        (fun () ->
          Process.sleep (Time.us ((seed * 131 + th * 17) mod 80));
          let conn = Tcp.connect client_tcp ~dst:server_ip ~port:6379 in
          let remaining = ref ops_per_thread in
          while !remaining > 0 do
            let batch = min pipeline !remaining in
            let b = Buffer.create (batch * 32) in
            for i = 1 to batch do
              let key = Printf.sprintf "key:%d:%d" th (i mod 997) in
              match phase with
              | Set_phase ->
                  Buffer.add_string b
                    (Printf.sprintf "SET %s %d\n%s" key value_size value)
              | Get_phase -> Buffer.add_string b (Printf.sprintf "GET %s\n" key)
            done;
            Tcp.send conn (Buffer.to_bytes b);
            (* Drain the batch's replies. *)
            for _ = 1 to batch do
              match Tcp.recv_line conn with
              | Some hdr
                when String.length hdr > 1 && hdr.[0] = '$' && hdr <> "$-1" ->
                  let n = int_of_string (String.sub hdr 1 (String.length hdr - 1)) in
                  ignore (Tcp.recv_exact conn ~len:n)
              | Some _ -> ()
              | None -> remaining := 0
            done;
            remaining := max 0 (!remaining - batch)
          done;
          Tcp.close conn;
          incr finished;
          if !finished = threads then begin
            let elapsed = Time.to_sec_f (Engine.now engine - t0) in
            let rate = float_of_int (threads * ops_per_thread) /. elapsed in
            after rate
          end)
    done
  in
  run_phase Set_phase (fun rate ->
      set_rate := rate;
      incr phase_done;
      run_phase Get_phase (fun rate ->
          get_rate := rate;
          on_done
            {
              set_ops_per_sec = !set_rate;
              get_ops_per_sec = !get_rate;
              total_ops = 2 * threads * ops_per_thread;
            }))
