open Kite_sim
open Kite_net
open Kite_apps

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* Two directly connected hosts: a server and a client. *)
let setup () =
  let e = Engine.create () in
  let s = Process.scheduler e in
  let da, db = Netdev.pipe ~name_a:"srv" ~name_b:"cli" in
  let server =
    Stack.create s ~name:"server" ~dev:da ~mac:(Macaddr.make_local 1)
      ~ip:(Ipv4addr.of_string "10.1.0.1")
      ~netmask:(Ipv4addr.of_string "255.255.255.0")
      ()
  in
  let client =
    Stack.create s ~name:"client" ~dev:db ~mac:(Macaddr.make_local 2)
      ~ip:(Ipv4addr.of_string "10.1.0.2")
      ~netmask:(Ipv4addr.of_string "255.255.255.0")
      ()
  in
  (e, s, server, client)

let server_ip = Ipv4addr.of_string "10.1.0.1"

(* ------------------------------------------------------------------ *)
(* HTTP                                                                *)
(* ------------------------------------------------------------------ *)

let http_get conn path ~keepalive =
  Tcp.send conn
    (Bytes.of_string
       (Printf.sprintf "GET %s HTTP/1.1\r\nHost: x\r\n%s\r\n" path
          (if keepalive then "" else "Connection: close\r\n")));
  (* Read the response head. *)
  let buf = Buffer.create 256 in
  let rec head () =
    let s = Buffer.contents buf in
    match
      let rec find i =
        if i + 4 > String.length s then None
        else if String.sub s i 4 = "\r\n\r\n" then Some (i + 4)
        else find (i + 1)
      in
      find 0
    with
    | Some body_start -> Some (s, body_start)
    | None -> (
        match Tcp.recv conn ~max:4096 with
        | Some b ->
            Buffer.add_bytes buf b;
            head ()
        | None -> None)
  in
  match head () with
  | None -> None
  | Some (s, body_start) ->
      let clen =
        List.fold_left
          (fun acc line ->
            match String.index_opt line ':' with
            | Some i
              when String.lowercase_ascii (String.sub line 0 i)
                   = "content-length" ->
                int_of_string
                  (String.trim
                     (String.sub line (i + 1) (String.length line - i - 1)))
            | _ -> acc)
          0
          (String.split_on_char '\n' s)
      in
      let already = String.length s - body_start in
      let rec drain n = if n <= 0 then () else (
        match Tcp.recv conn ~max:n with
        | Some b -> drain (n - Bytes.length b)
        | None -> ())
      in
      drain (clen - already);
      let status = List.nth (String.split_on_char ' ' s) 1 in
      Some (status, clen)

(* Like {!http_get} but keeps the body (used by the /metrics test). *)
let http_get_body conn path =
  Tcp.send conn
    (Bytes.of_string (Printf.sprintf "GET %s HTTP/1.1\r\nHost: x\r\n\r\n" path));
  let buf = Buffer.create 1024 in
  let rec head () =
    let s = Buffer.contents buf in
    let rec find i =
      if i + 4 > String.length s then None
      else if String.sub s i 4 = "\r\n\r\n" then Some (i + 4)
      else find (i + 1)
    in
    match find 0 with
    | Some body_start -> Some (s, body_start)
    | None -> (
        match Tcp.recv conn ~max:4096 with
        | Some b ->
            Buffer.add_bytes buf b;
            head ()
        | None -> None)
  in
  match head () with
  | None -> None
  | Some (s, body_start) ->
      let clen =
        List.fold_left
          (fun acc line ->
            match String.index_opt line ':' with
            | Some i
              when String.lowercase_ascii (String.sub line 0 i)
                   = "content-length" ->
                int_of_string
                  (String.trim
                     (String.sub line (i + 1) (String.length line - i - 1)))
            | _ -> acc)
          0
          (String.split_on_char '\n' s)
      in
      let body = Buffer.create clen in
      Buffer.add_string body
        (String.sub s body_start (String.length s - body_start));
      let rec drain () =
        if Buffer.length body < clen then
          match Tcp.recv conn ~max:(clen - Buffer.length body) with
          | Some b ->
              Buffer.add_bytes body b;
              drain ()
          | None -> ()
      in
      drain ();
      Some (Buffer.contents body)

let test_httpd_basic () =
  let e, s, server, client = setup () in
  let tcp_s = Tcp.attach server and tcp_c = Tcp.attach client in
  let httpd = Httpd.start tcp_s ~sched:s () in
  let result = ref None in
  Process.spawn s ~name:"client" (fun () ->
      let conn = Tcp.connect tcp_c ~dst:server_ip ~port:80 in
      result := http_get conn (Httpd.path_for 2048) ~keepalive:false);
  Engine.run_until e (Time.sec 5);
  check_bool "200 with right length" true (!result = Some ("200", 2048));
  check_int "served" 1 (Httpd.requests_served httpd);
  check_int "bytes" 2048 (Httpd.bytes_served httpd)

let test_httpd_keepalive_pipeline () =
  let e, s, server, client = setup () in
  let tcp_s = Tcp.attach server and tcp_c = Tcp.attach client in
  let httpd = Httpd.start tcp_s ~sched:s () in
  let statuses = ref [] in
  Process.spawn s ~name:"client" (fun () ->
      let conn = Tcp.connect tcp_c ~dst:server_ip ~port:80 in
      for _ = 1 to 5 do
        match http_get conn (Httpd.path_for 512) ~keepalive:true with
        | Some (st, _) -> statuses := st :: !statuses
        | None -> ()
      done;
      Tcp.close conn);
  Engine.run_until e (Time.sec 5);
  check_int "five responses" 5 (List.length !statuses);
  check_int "one connection served all" 5 (Httpd.requests_served httpd)

let test_httpd_metrics_route () =
  let module R = Kite_metrics.Registry in
  let e, s, server, client = setup () in
  let tcp_s = Tcp.attach server and tcp_c = Tcp.attach client in
  let sink = R.sink () in
  let r = R.create_in sink ~name:"machine0" in
  R.counter_fn r "kite_custom_total" [] (fun () -> 7);
  let httpd = Httpd.start tcp_s ~sched:s ~metrics:sink () in
  let body = ref None in
  Process.spawn s ~name:"client" (fun () ->
      let conn = Tcp.connect tcp_c ~dst:server_ip ~port:80 in
      (* A data request first, so the self-metrics have something to say. *)
      ignore (http_get conn (Httpd.path_for 1024) ~keepalive:true);
      body := http_get_body conn "/metrics";
      Tcp.close conn);
  Engine.run_until e (Time.sec 5);
  match !body with
  | None -> Alcotest.fail "no /metrics response"
  | Some text ->
      let samples = R.parse_prometheus text in
      let find name =
        List.find_opt (fun (n, _, _) -> n = name) samples
      in
      (* The ambient registry is scraped, machine-labelled. *)
      (match find "kite_custom_total" with
      | Some (_, labels, v) ->
          check_bool "custom counter value" true (v = 7.);
          check_bool "machine label" true
            (List.assoc_opt "machine" labels = Some "machine0")
      | None -> Alcotest.fail "custom counter missing from scrape");
      (* The server's own counters, registered via ?metrics. *)
      (match find "kite_httpd_requests_total" with
      | Some (_, _, v) -> check_bool "requests self-metric" true (v = 1.)
      | None -> Alcotest.fail "kite_httpd_requests_total missing");
      (match find "kite_httpd_bytes_total" with
      | Some (_, _, v) -> check_bool "bytes self-metric" true (v = 1024.)
      | None -> Alcotest.fail "kite_httpd_bytes_total missing");
      (* The scrape itself is not counted as a served request. *)
      check_int "scrape not self-counted" 1 (Httpd.requests_served httpd)

let test_httpd_404 () =
  let e, s, server, client = setup () in
  let tcp_s = Tcp.attach server and tcp_c = Tcp.attach client in
  ignore (Httpd.start tcp_s ~sched:s ());
  let result = ref None in
  Process.spawn s ~name:"client" (fun () ->
      let conn = Tcp.connect tcp_c ~dst:server_ip ~port:80 in
      result := http_get conn "/no/such/path" ~keepalive:false);
  Engine.run_until e (Time.sec 5);
  match !result with
  | Some (st, _) -> check_str "status" "404" st
  | None -> Alcotest.fail "no response"

(* ------------------------------------------------------------------ *)
(* Kvstore                                                             *)
(* ------------------------------------------------------------------ *)

let recv_line conn =
  let buf = Buffer.create 64 in
  let rec go () =
    match Tcp.recv conn ~max:1 with
    | Some b when Bytes.get b 0 = '\n' -> Some (Buffer.contents buf)
    | Some b ->
        Buffer.add_bytes buf b;
        go ()
    | None -> None
  in
  go ()

let test_kvstore_set_get () =
  let e, s, server, client = setup () in
  let tcp_s = Tcp.attach server and tcp_c = Tcp.attach client in
  let kv = Kvstore.start tcp_s ~sched:s () in
  let got = ref None in
  Process.spawn s ~name:"client" (fun () ->
      let conn = Tcp.connect tcp_c ~dst:server_ip ~port:6379 in
      Tcp.send conn (Bytes.of_string "SET mykey 5\nhello");
      (match recv_line conn with
      | Some "+OK" -> ()
      | other -> Alcotest.failf "bad SET reply %s" (Option.value other ~default:"<eof>"));
      Tcp.send conn (Bytes.of_string "GET mykey\n");
      (match recv_line conn with
      | Some hdr when String.length hdr > 1 && hdr.[0] = '$' ->
          let n = int_of_string (String.sub hdr 1 (String.length hdr - 1)) in
          got := Tcp.recv_exact conn ~len:n |> Option.map Bytes.to_string
      | other -> Alcotest.failf "bad GET reply %s" (Option.value other ~default:"<eof>"));
      Tcp.close conn);
  Engine.run_until e (Time.sec 5);
  check_bool "value roundtrip" true (!got = Some "hello");
  check_int "sets" 1 (Kvstore.sets kv);
  check_int "gets" 1 (Kvstore.gets kv)

let test_kvstore_get_missing () =
  let e, s, server, client = setup () in
  let tcp_s = Tcp.attach server and tcp_c = Tcp.attach client in
  ignore (Kvstore.start tcp_s ~sched:s ());
  let reply = ref None in
  Process.spawn s ~name:"client" (fun () ->
      let conn = Tcp.connect tcp_c ~dst:server_ip ~port:6379 in
      Tcp.send conn (Bytes.of_string "GET nope\n");
      reply := recv_line conn;
      Tcp.close conn);
  Engine.run_until e (Time.sec 5);
  check_bool "nil" true (!reply = Some "$-1")

let test_kvstore_pipeline () =
  (* Many commands in one burst, replies arrive in order. *)
  let e, s, server, client = setup () in
  let tcp_s = Tcp.attach server and tcp_c = Tcp.attach client in
  let kv = Kvstore.start tcp_s ~sched:s () in
  let oks = ref 0 in
  Process.spawn s ~name:"client" (fun () ->
      let conn = Tcp.connect tcp_c ~dst:server_ip ~port:6379 in
      let b = Buffer.create 1024 in
      for i = 1 to 50 do
        Buffer.add_string b (Printf.sprintf "SET k%d 3\nv%02d" i i)
      done;
      Tcp.send conn (Buffer.to_bytes b);
      for _ = 1 to 50 do
        match recv_line conn with
        | Some "+OK" -> incr oks
        | _ -> ()
      done;
      Tcp.close conn);
  Engine.run_until e (Time.sec 10);
  check_int "all pipelined acks" 50 !oks;
  check_int "all stored" 50 (Kvstore.keys kv)

(* ------------------------------------------------------------------ *)
(* Memcache                                                            *)
(* ------------------------------------------------------------------ *)

let test_memcache_protocol () =
  let e, s, server, client = setup () in
  let tcp_s = Tcp.attach server and tcp_c = Tcp.attach client in
  let mc = Memcache.start tcp_s ~sched:s () in
  let stored = ref false and value = ref None and miss = ref false in
  Process.spawn s ~name:"client" (fun () ->
      let conn = Tcp.connect tcp_c ~dst:server_ip ~port:11211 in
      Tcp.send conn (Bytes.of_string "set foo 7 0 3\r\nbar\r\n");
      (match recv_line conn with
      | Some "STORED\r" -> stored := true
      | _ -> ());
      Tcp.send conn (Bytes.of_string "get foo\r\n");
      (match recv_line conn with
      | Some hdr when String.length hdr >= 5 && String.sub hdr 0 5 = "VALUE" ->
          (match Tcp.recv_exact conn ~len:5 (* data + crlf *) with
          | Some raw -> value := Some (Bytes.sub_string raw 0 3)
          | None -> ());
          ignore (recv_line conn)  (* END *)
      | _ -> ());
      Tcp.send conn (Bytes.of_string "get missing\r\n");
      (match recv_line conn with
      | Some "END\r" -> miss := true
      | _ -> ());
      Tcp.close conn);
  Engine.run_until e (Time.sec 5);
  check_bool "stored" true !stored;
  check_bool "value" true (!value = Some "bar");
  check_bool "miss returns END" true !miss;
  check_int "hits" 1 (Memcache.hits mc);
  check_int "gets" 2 (Memcache.gets mc)

(* ------------------------------------------------------------------ *)
(* Sqldb                                                               *)
(* ------------------------------------------------------------------ *)

let test_sqldb_memory_queries () =
  let e, s, server, client = setup () in
  let tcp_s = Tcp.attach server and tcp_c = Tcp.attach client in
  let db =
    Sqldb.start tcp_s ~backend:Sqldb.Memory ~tables:4 ~rows_per_table:1000
      ~sched:s ()
  in
  let row_len = ref 0 and range_ok = ref false and val_ok = ref false in
  Process.spawn s ~name:"client" (fun () ->
      let conn = Tcp.connect tcp_c ~dst:server_ip ~port:3306 in
      Tcp.send conn (Bytes.of_string "PSELECT 1 42\n");
      (match recv_line conn with
      | Some hdr -> (
          match String.split_on_char ' ' hdr with
          | [ "ROW"; n ] ->
              row_len := int_of_string n;
              ignore (Tcp.recv_exact conn ~len:!row_len)
          | _ -> ())
      | None -> ());
      Tcp.send conn (Bytes.of_string "RANGE 1 10 8\n");
      (match recv_line conn with
      | Some hdr -> (
          match String.split_on_char ' ' hdr with
          | [ "ROWS"; "8"; total ] ->
              range_ok := true;
              ignore (Tcp.recv_exact conn ~len:(int_of_string total))
          | _ -> ())
      | None -> ());
      Tcp.send conn (Bytes.of_string "SUM 0 0 100\n");
      (match recv_line conn with
      | Some hdr ->
          val_ok := String.length hdr > 4 && String.sub hdr 0 4 = "VAL "
      | None -> ());
      Tcp.close conn);
  Engine.run_until e (Time.sec 5);
  check_int "row size" Sqldb.row_size !row_len;
  check_bool "range" true !range_ok;
  check_bool "sum" true !val_ok;
  check_int "queries" 3 (Sqldb.queries db);
  check_int "no disk" 0 (Sqldb.disk_reads db)

let test_sqldb_disk_backend () =
  let e, s, server, client = setup () in
  let tcp_s = Tcp.attach server and tcp_c = Tcp.attach client in
  let dev = Kite_vfs.Blockdev.ram ~name:"db" ~capacity_sectors:(1 lsl 20) in
  let db =
    Sqldb.start tcp_s
      ~backend:
        (Sqldb.Raw
           {
             read = dev.Kite_vfs.Blockdev.read;
             write = dev.Kite_vfs.Blockdev.write;
             buffer_pool_rows = 8;
           })
      ~tables:2 ~rows_per_table:1000 ~sched:s ()
  in
  Process.spawn s ~name:"client" (fun () ->
      let conn = Tcp.connect tcp_c ~dst:server_ip ~port:3306 in
      (* Touch many distinct rows: the tiny pool forces disk reads. *)
      for i = 0 to 49 do
        Tcp.send conn (Bytes.of_string (Printf.sprintf "PSELECT 0 %d\n" (i * 10)));
        match recv_line conn with
        | Some hdr -> (
            match String.split_on_char ' ' hdr with
            | [ "ROW"; n ] -> ignore (Tcp.recv_exact conn ~len:(int_of_string n))
            | _ -> ())
        | None -> ()
      done;
      (* Re-read the last row: should hit the pool. *)
      Tcp.send conn (Bytes.of_string "PSELECT 0 490\n");
      (match recv_line conn with
      | Some hdr -> (
          match String.split_on_char ' ' hdr with
          | [ "ROW"; n ] -> ignore (Tcp.recv_exact conn ~len:(int_of_string n))
          | _ -> ())
      | None -> ());
      Tcp.close conn);
  Engine.run_until e (Time.sec 10);
  check_bool "disk reads happened" true (Sqldb.disk_reads db >= 50);
  check_bool "pool hit on re-read" true (Sqldb.buffer_pool_hits db >= 1)

let test_sqldb_update_persists () =
  let e, s, server, client = setup () in
  let tcp_s = Tcp.attach server and tcp_c = Tcp.attach client in
  ignore
    (Sqldb.start tcp_s ~backend:Sqldb.Memory ~tables:1 ~rows_per_table:100
       ~sched:s ());
  let byte0 = ref ' ' in
  Process.spawn s ~name:"client" (fun () ->
      let conn = Tcp.connect tcp_c ~dst:server_ip ~port:3306 in
      Tcp.send conn (Bytes.of_string "UPDATE 0 5 4\nZZZZ");
      (match recv_line conn with Some "+OK" -> () | _ -> Alcotest.fail "update");
      Tcp.send conn (Bytes.of_string "PSELECT 0 5\n");
      (match recv_line conn with
      | Some hdr -> (
          match String.split_on_char ' ' hdr with
          | [ "ROW"; n ] -> (
              match Tcp.recv_exact conn ~len:(int_of_string n) with
              | Some row -> byte0 := Bytes.get row 0
              | None -> ())
          | _ -> ())
      | None -> ());
      Tcp.close conn);
  Engine.run_until e (Time.sec 5);
  check_bool "updated row read back" true (!byte0 = 'Z')

(* ------------------------------------------------------------------ *)
(* DHCP server                                                         *)
(* ------------------------------------------------------------------ *)

let test_dhcp_discover_request () =
  let e, s, server, client = setup () in
  let dhcpd =
    Dhcp_server.start server ~sched:s ~server_ip
      ~pool_start:(Ipv4addr.of_string "10.1.0.100")
      ~pool_size:10 ()
  in
  let offered = ref None and acked = ref None in
  Process.spawn s ~name:"dhcp-client" (fun () ->
      let mac = Macaddr.make_local 77 in
      let sock = Stack.udp_bind client ~port:Dhcp_wire.client_port in
      Stack.udp_send client sock ~dst:server_ip
        ~dst_port:Dhcp_wire.server_port
        (Dhcp_wire.encode
           (Dhcp_wire.make ~op:`Boot_request ~xid:1l ~chaddr:mac
              ~message_type:Dhcp_wire.Discover ()));
      (match Stack.udp_recv sock with
      | _, _, payload -> (
          match Dhcp_wire.decode payload with
          | Some m when m.Dhcp_wire.message_type = Dhcp_wire.Offer ->
              offered := Some m.Dhcp_wire.yiaddr
          | _ -> ()));
      (match !offered with
      | Some ip ->
          Stack.udp_send client sock ~dst:server_ip
            ~dst_port:Dhcp_wire.server_port
            (Dhcp_wire.encode
               (Dhcp_wire.make ~op:`Boot_request ~xid:2l ~chaddr:mac
                  ~message_type:Dhcp_wire.Request ~requested_ip:ip
                  ~server_id:server_ip ()));
          let _, _, payload = Stack.udp_recv sock in
          (match Dhcp_wire.decode payload with
          | Some m when m.Dhcp_wire.message_type = Dhcp_wire.Ack ->
              acked := Some m.Dhcp_wire.yiaddr
          | _ -> ())
      | None -> ()));
  Engine.run_until e (Time.sec 5);
  check_bool "offer from pool" true
    (!offered = Some (Ipv4addr.of_string "10.1.0.100"));
  check_bool "ack matches offer" true (!acked = !offered);
  check_int "one lease" 1 (Dhcp_server.active_leases dhcpd);
  check_int "offers" 1 (Dhcp_server.offers dhcpd);
  check_int "acks" 1 (Dhcp_server.acks dhcpd)

let test_dhcp_pool_exhaustion () =
  let e, s, server, client = setup () in
  let dhcpd =
    Dhcp_server.start server ~sched:s ~server_ip
      ~pool_start:(Ipv4addr.of_string "10.1.0.100")
      ~pool_size:2 ()
  in
  let offers_seen = ref 0 in
  Process.spawn s ~name:"clients" (fun () ->
      let sock = Stack.udp_bind client ~port:Dhcp_wire.client_port in
      for i = 1 to 3 do
        Stack.udp_send client sock ~dst:server_ip
          ~dst_port:Dhcp_wire.server_port
          (Dhcp_wire.encode
             (Dhcp_wire.make ~op:`Boot_request ~xid:(Int32.of_int i)
                ~chaddr:(Macaddr.make_local i)
                ~message_type:Dhcp_wire.Discover ()));
        match Stack.udp_recv_timeout sock (Time.ms 100) with
        | Some _ -> incr offers_seen
        | None -> ()
      done);
  Engine.run_until e (Time.sec 5);
  check_int "only pool-size offers" 2 !offers_seen;
  check_int "two leases" 2 (Dhcp_server.active_leases dhcpd)

let test_dhcp_nak_on_wrong_request () =
  let e, s, server, client = setup () in
  let dhcpd =
    Dhcp_server.start server ~sched:s ~server_ip
      ~pool_start:(Ipv4addr.of_string "10.1.0.100")
      ~pool_size:4 ()
  in
  let nak = ref false in
  Process.spawn s ~name:"client" (fun () ->
      let mac = Macaddr.make_local 5 in
      let sock = Stack.udp_bind client ~port:Dhcp_wire.client_port in
      (* Request an address we were never offered. *)
      Stack.udp_send client sock ~dst:server_ip
        ~dst_port:Dhcp_wire.server_port
        (Dhcp_wire.encode
           (Dhcp_wire.make ~op:`Boot_request ~xid:9l ~chaddr:mac
              ~message_type:Dhcp_wire.Request
              ~requested_ip:(Ipv4addr.of_string "10.9.9.9")
              ~server_id:server_ip ()));
      match Stack.udp_recv_timeout sock (Time.ms 500) with
      | Some (_, _, payload) -> (
          match Dhcp_wire.decode payload with
          | Some m when m.Dhcp_wire.message_type = Dhcp_wire.Nak -> nak := true
          | _ -> ())
      | None -> ());
  Engine.run_until e (Time.sec 5);
  check_bool "nak" true !nak;
  check_int "naks counted" 1 (Dhcp_server.naks dhcpd)

let test_line_reader () =
  (* Drive the reader over a local TCP pipe with fragmented writes. *)
  let e, s, server, client = setup () in
  let tcp_s = Tcp.attach server and tcp_c = Tcp.attach client in
  let lines = ref [] in
  let blob = ref None in
  Process.spawn s ~name:"server" (fun () ->
      let l = Tcp.listen tcp_s ~port:1234 in
      let c = Tcp.accept l in
      for _ = 1 to 3 do
        match Tcp.recv_line c with
        | Some line -> lines := line :: !lines
        | None -> ()
      done;
      blob := Tcp.recv_exact c ~len:10;
      (* EOF surfaces as None from both operations. *)
      (match Tcp.recv_line c with
      | None -> lines := "<eof>" :: !lines
      | Some _ -> ()));
  Process.spawn s ~name:"client" (fun () ->
      let c = Tcp.connect tcp_c ~dst:server_ip ~port:1234 in
      (* Split writes mid-line to exercise buffering. *)
      Tcp.send c (Bytes.of_string "al");
      Tcp.send c (Bytes.of_string "pha\nbeta\nga");
      Tcp.send c (Bytes.of_string "mma\n0123456789");
      Tcp.close c);
  Engine.run_until e (Time.sec 5);
  Alcotest.(check (list string))
    "lines across fragmented writes"
    [ "alpha"; "beta"; "gamma"; "<eof>" ]
    (List.rev !lines);
  check_bool "exact body" true
    (!blob = Some (Bytes.of_string "0123456789"))

(* [Wire.index] searches each slice only inside its own range: a '\n'
   just before a slice's offset or just past its end belongs to no
   slice. *)
let test_wire_index () =
  let buf = Bytes.of_string "a\nbcdef\ngh" in
  let slice off len = { Wire.buf; off; len } in
  let check_index msg want iov =
    Alcotest.(check (option int)) msg want (Wire.index iov '\n')
  in
  check_index "inside [2, 7) only" None [ slice 2 5 ];
  check_index "before [0, 1) ends" None [ slice 0 1; slice 2 5 ];
  check_index "empty slice at the newline" None [ slice 1 0; slice 8 0 ];
  check_index "first byte of the second slice" (Some 5)
    [ slice 2 5; slice 7 3 ];
  check_index "last byte of the first slice" (Some 5) [ slice 2 6; slice 8 2 ];
  check_index "no slices" None []

(* The stream readers against a parse of the bytes sent.  A script of
   lines and bodies (bodies may hold '\n', and line lengths cluster near
   multiples of the 1,460-byte MSS so a '\n' lands on segment edges) is
   sent, possibly cut short, in writes of random sizes, some followed by
   a pause so the sender flushes a short segment.  Reading the script
   back item by item must give what a cursor over the sent bytes gives,
   [None] for a line or body the cut leaves partial, and what is left
   after the script must still be queued. *)
type item = Line of string | Body of string

let item_bytes = function Line l -> l ^ "\n" | Body b -> b

(* Each item's result and the unread rest: a partial line or body
   returns [None] and leaves the cursor where it was. *)
let reference script data =
  let n = String.length data in
  let step (pos, acc) item =
    match item with
    | Line _ -> (
        match String.index_from_opt data pos '\n' with
        | Some i -> (i + 1, Some (String.sub data pos (i - pos)) :: acc)
        | None -> (pos, None :: acc))
    | Body b ->
        let k = String.length b in
        if pos + k <= n then (pos + k, Some (String.sub data pos k) :: acc)
        else (pos, None :: acc)
  in
  let pos, acc = List.fold_left step (0, []) script in
  (List.rev acc, String.sub data pos (n - pos))

let stream_case =
  let open QCheck.Gen in
  let near_mss = map2 (fun k d -> max 0 ((k * 1460) + d)) (1 -- 3) (-2 -- 2) in
  let text chars len = string_size ~gen:(oneofl chars) (return len) in
  let line =
    frequency [ (1, 0 -- 40); (1, near_mss) ]
    >>= text [ 'a'; 'b'; ' '; '\r' ] >|= fun l -> Line l
  in
  let body =
    frequency [ (1, 0 -- 4000); (1, near_mss) ]
    >>= text [ 'x'; 'y'; '\n'; '\r' ] >|= fun b -> Body b
  in
  let writes = list_size (1 -- 12) (pair (1 -- 3000) bool) in
  list_size (1 -- 10) (frequency [ (2, line); (1, body) ]) >>= fun script ->
  let total = String.length (String.concat "" (List.map item_bytes script)) in
  let cut = frequency [ (1, return total); (1, 0 -- total) ] in
  triple (return script) cut writes

let print_case (script, cut, writes) =
  Printf.sprintf "script [%s] cut %d writes [%s]"
    (String.concat "; "
       (List.map
          (function
            | Line l -> Printf.sprintf "L%d" (String.length l)
            | Body b -> Printf.sprintf "B%d" (String.length b))
          script))
    cut
    (String.concat "; "
       (List.map (fun (n, p) -> Printf.sprintf "%d%s" n (if p then "+" else ""))
          writes))

let read_script conn script =
  let read acc = function
    | Line _ -> Tcp.recv_line conn :: acc
    | Body b ->
        Option.map Bytes.to_string (Tcp.recv_exact conn ~len:(String.length b))
        :: acc
  in
  let results = List.rev (List.fold_left read [] script) in
  let rest = Buffer.create 64 in
  let rec drain () =
    match Tcp.recv conn ~max:65536 with
    | Some b ->
        Buffer.add_bytes rest b;
        drain ()
    | None -> ()
  in
  drain ();
  (results, Buffer.contents rest)

let prop_stream_reader =
  QCheck.Test.make ~name:"stream reader matches a parse of the bytes"
    ~count:150
    (QCheck.make ~print:print_case stream_case)
    (fun (script, cut, writes) ->
      let data =
        String.sub (String.concat "" (List.map item_bytes script)) 0 cut
      in
      let e, s, server, client = setup () in
      let tcp_s = Tcp.attach server and tcp_c = Tcp.attach client in
      let got = ref None in
      Process.spawn s ~name:"reader" (fun () ->
          let c = Tcp.accept (Tcp.listen tcp_s ~port:1235) in
          got := Some (read_script c script));
      Process.spawn s ~name:"writer" (fun () ->
          let c = Tcp.connect tcp_c ~dst:server_ip ~port:1235 in
          let writes = Array.of_list writes in
          let rec send off k =
            if off < cut then begin
              let n, pause = writes.(k mod Array.length writes) in
              let n = min n (cut - off) in
              Tcp.send c (Bytes.of_string (String.sub data off n));
              if pause then Process.sleep (Time.us 30);
              send (off + n) (k + 1)
            end
          in
          send 0 0;
          Tcp.close c);
      Engine.run_until e (Time.sec 5);
      !got = Some (reference script data))

let suite =
  [
    ("httpd basic GET", `Quick, test_httpd_basic);
    ("httpd keep-alive pipelining", `Quick, test_httpd_keepalive_pipeline);
    ("httpd 404", `Quick, test_httpd_404);
    ("httpd /metrics route", `Quick, test_httpd_metrics_route);
    ("kvstore set/get", `Quick, test_kvstore_set_get);
    ("kvstore missing key", `Quick, test_kvstore_get_missing);
    ("kvstore pipeline burst", `Quick, test_kvstore_pipeline);
    ("memcache protocol", `Quick, test_memcache_protocol);
    ("sqldb memory queries", `Quick, test_sqldb_memory_queries);
    ("sqldb disk backend + pool", `Quick, test_sqldb_disk_backend);
    ("sqldb update persists", `Quick, test_sqldb_update_persists);
    ("dhcp discover/request", `Quick, test_dhcp_discover_request);
    ("dhcp pool exhaustion", `Quick, test_dhcp_pool_exhaustion);
    ("dhcp nak", `Quick, test_dhcp_nak_on_wrong_request);
    ("line reader buffering", `Quick, test_line_reader);
    ("wire index stays inside each slice", `Quick, test_wire_index);
    QCheck_alcotest.to_alcotest prop_stream_reader;
  ]
