open Kite_sim
open Kite_net

type result = {
  completed : int;
  time_taken_s : float;
  requests_per_sec : float;
  throughput_mbps : float;
  avg_latency_ms : float;
}

let run ~sched ~client_tcp ~server_ip ?(requests = 10_000)
    ?(concurrency = 40) ?(seed = 1) ~file_size ~on_done () =
  let engine = Process.engine sched in
  let path = Kite_apps.Httpd.path_for file_size in
  let completed = ref 0 in
  let bytes = ref 0 in
  let total_lat = ref 0.0 in
  let finished_workers = ref 0 in
  let start = Engine.now engine in
  let per_worker = requests / concurrency in
  let request_bytes =
    Bytes.of_string (Printf.sprintf "GET %s HTTP/1.1\r\nHost: bench\r\n\r\n" path)
  in
  for w = 1 to concurrency do
    Process.spawn sched ~name:(Printf.sprintf "ab-%d" w) (fun () ->
        Process.sleep (Time.us ((seed * 89 + w * 11) mod 80));
        let conn = Tcp.connect client_tcp ~dst:server_ip ~port:80 in
        for _ = 1 to per_worker do
          let t0 = Engine.now engine in
          Tcp.send conn request_bytes;
          (* Headers end at the blank line; Content-Length gives the body. *)
          let clen = ref 0 in
          let rec headers () =
            match Tcp.recv_line conn with
            | Some "\r" | Some "" -> ()
            | Some line ->
                (match String.index_opt line ':' with
                | Some i
                  when String.lowercase_ascii (String.sub line 0 i)
                       = "content-length" ->
                    clen :=
                      int_of_string
                        (String.trim
                           (String.sub line (i + 1) (String.length line - i - 1)))
                | _ -> ());
                headers ()
            | None -> ()
          in
          headers ();
          ignore (Tcp.recv_exact conn ~len:!clen);
          completed := !completed + 1;
          bytes := !bytes + !clen;
          total_lat := !total_lat +. Time.to_ms_f (Engine.now engine - t0)
        done;
        Tcp.close conn;
        incr finished_workers;
        if !finished_workers = concurrency then begin
          let elapsed = Time.to_sec_f (Engine.now engine - start) in
          on_done
            {
              completed = !completed;
              time_taken_s = elapsed;
              requests_per_sec = float_of_int !completed /. elapsed;
              throughput_mbps = float_of_int !bytes /. elapsed /. 1e6;
              avg_latency_ms = !total_lat /. float_of_int (max 1 !completed);
            }
        end)
  done
