open Kite_sim
open Kite_net

type result = {
  ops : int;
  sets : int;
  gets : int;
  avg_latency_ms : float;
  ops_per_sec : float;
}


let run ~sched ~client_tcp ~server_ip ?(ops = 100_000)
    ?(value_size = 8192) ?(clients = 4) ?(seed = 1) ~on_done () =
  let engine = Process.engine sched in
  (* memtier's default mix: 1 set to 10 gets. *)
  let set_w, get_w = (1, 10) in
  let cycle = set_w + get_w in
  let total_lat = ref 0.0 in
  let done_ops = ref 0 in
  let sets = ref 0 in
  let gets = ref 0 in
  let finished = ref 0 in
  let started_at = ref 0 in
  let per_client = ops / clients in
  let value = Bytes.make value_size 'v' in
  let crlf = Bytes.of_string "\r\n" in
  for c = 1 to clients do
    Process.spawn sched ~name:(Printf.sprintf "memtier-%d" c) (fun () ->
        Process.sleep (Time.us ((seed * 97 + c * 13) mod 80));
        let conn = Tcp.connect client_tcp ~dst:server_ip ~port:11211 in
        if !started_at = 0 then started_at := Engine.now engine;
        for i = 0 to per_client - 1 do
          let key = Printf.sprintf "memtier-%d-%d" c (i mod 50) in
          let t0 = Engine.now engine in
          if i mod cycle < set_w then begin
            incr sets;
            Tcp.send conn
              (Bytes.of_string
                 (Printf.sprintf "set %s 0 0 %d\r\n" key value_size));
            Tcp.send conn value;
            Tcp.send conn crlf;
            ignore (Tcp.recv_line conn)
          end
          else begin
            incr gets;
            Tcp.send conn (Bytes.of_string (Printf.sprintf "get %s\r\n" key));
            match Tcp.recv_line conn with
            | Some hdr when String.length hdr >= 5 && String.sub hdr 0 5 = "VALUE"
              -> (
                (* consume data + CRLF + END *)
                match String.split_on_char ' ' hdr with
                | [ _; _; _; len ] ->
                    let n = int_of_string (String.trim len) in
                    ignore (Tcp.recv_exact conn ~len:(n + 2));
                    ignore (Tcp.recv_line conn)
                | _ -> ())
            | _ -> ()
          end;
          total_lat := !total_lat +. Time.to_ms_f (Engine.now engine - t0);
          incr done_ops
        done;
        Tcp.close conn;
        incr finished;
        if !finished = clients then begin
          let elapsed = Engine.now engine - !started_at in
          on_done
            {
              ops = !done_ops;
              sets = !sets;
              gets = !gets;
              avg_latency_ms = !total_lat /. float_of_int (max 1 !done_ops);
              ops_per_sec =
                float_of_int !done_ops /. Time.to_sec_f (max 1 elapsed);
            }
        end)
  done
