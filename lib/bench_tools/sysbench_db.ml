open Kite_sim
open Kite_net

type result = {
  transactions : int;
  queries : int;
  tps : float;
  qps : float;
  avg_latency_ms : float;
}

(* sysbench's own client-side work per query. *)
let client_overhead = Time.us 500

let run ~sched ~client_tcp ~server_ip ?(tables = 10)
    ?(rows_per_table = 1_000_000) ?(transactions_per_thread = 50)
    ?(range_size = 100) ~threads ~seed ~on_done () =
  let engine = Process.engine sched in
  let finished = ref 0 in
  let txs = ref 0 in
  let queries = ref 0 in
  let total_lat = ref 0.0 in
  let t0 = Engine.now engine in
  for th = 1 to threads do
    Process.spawn sched ~name:(Printf.sprintf "sysbench-%d" th) (fun () ->
        let rng = Rng.create (seed + th) in
        (* Stagger worker start so different seeds explore different
           interleavings, like real load generators. *)
        Process.sleep (Time.us (Rng.int rng 400));
        let conn = Tcp.connect client_tcp ~dst:server_ip ~port:3306 in
        let send s = Tcp.send conn (Bytes.of_string s) in
        let expect_ok () = ignore (Tcp.recv_line conn) in
        let expect_row () =
          match Tcp.recv_line conn with
          | Some hdr -> (
              match String.split_on_char ' ' hdr with
              | [ "ROW"; n ] ->
                  ignore (Tcp.recv_exact conn ~len:(int_of_string n))
              | _ -> ())
          | None -> ()
        in
        let expect_rows () =
          match Tcp.recv_line conn with
          | Some hdr -> (
              match String.split_on_char ' ' hdr with
              | [ "ROWS"; _; total ] ->
                  ignore (Tcp.recv_exact conn ~len:(int_of_string total))
              | _ -> ())
          | None -> ()
        in
        let expect_val () = ignore (Tcp.recv_line conn) in
        for _ = 1 to transactions_per_thread do
          let tx_start = Engine.now engine in
          (* sysbench's own per-transaction bookkeeping on the client. *)
          Process.sleep (client_overhead * 14 / 2);
          send "BEGIN\n";
          expect_ok ();
          (* 10 point selects *)
          for _ = 1 to 10 do
            send
              (Printf.sprintf "PSELECT %d %d\n" (Rng.int rng tables)
                 (Rng.int rng rows_per_table));
            expect_row ();
            incr queries
          done;
          (* 4 range queries *)
          send
            (Printf.sprintf "RANGE %d %d %d\n" (Rng.int rng tables)
               (Rng.int rng rows_per_table) range_size);
          expect_rows ();
          send
            (Printf.sprintf "SUM %d %d %d\n" (Rng.int rng tables)
               (Rng.int rng rows_per_table) range_size);
          expect_val ();
          send
            (Printf.sprintf "ORDER %d %d %d\n" (Rng.int rng tables)
               (Rng.int rng rows_per_table) range_size);
          expect_val ();
          send
            (Printf.sprintf "SUM %d %d %d\n" (Rng.int rng tables)
               (Rng.int rng rows_per_table) (range_size / 2));
          expect_val ();
          queries := !queries + 4;
          send "COMMIT\n";
          expect_ok ();
          incr txs;
          total_lat := !total_lat +. Time.to_ms_f (Engine.now engine - tx_start)
        done;
        Tcp.close conn;
        incr finished;
        if !finished = threads then begin
          let elapsed = Time.to_sec_f (Engine.now engine - t0) in
          on_done
            {
              transactions = !txs;
              queries = !queries;
              tps = float_of_int !txs /. elapsed;
              qps = float_of_int !queries /. elapsed;
              avg_latency_ms = !total_lat /. float_of_int (max 1 !txs);
            }
        end)
  done
