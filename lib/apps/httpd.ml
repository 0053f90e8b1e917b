open Kite_sim
open Kite_net

(* Server-side processing per request, an httpd-ish figure. *)
let cpu_per_request = Time.us 40

type t = {
  sched : Process.sched;
  mutable requests_served : int;
  mutable bytes_served : int;
  metrics : Kite_metrics.Registry.sink option;
}

let path_for size = Printf.sprintf "/data/%d" size

let body_size_of_path path =
  match String.split_on_char '/' path with
  | [ ""; "data"; n ] -> int_of_string_opt n
  | _ -> None

(* Read one request head (through the blank line); returns the request
   line or None at EOF. *)
let read_request conn =
  let buf = Buffer.create 128 in
  let rec go () =
    let n = Buffer.length buf in
    if n >= 4 && Buffer.sub buf (n - 4) 4 = "\r\n\r\n" then
      Some (Buffer.contents buf)
    else
      match Tcp.recv conn ~max:4096 with
      | Some data ->
          Buffer.add_bytes buf data;
          go ()
      | None -> None
  in
  go ()

let parse_request_line head =
  match String.index_opt head '\r' with
  | None -> None
  | Some eol -> (
      match String.split_on_char ' ' (String.sub head 0 eol) with
      | [ meth; path; _version ] -> Some (meth, path)
      | _ -> None)

let wants_keepalive head =
  (* HTTP/1.1 defaults to keep-alive unless the client closes. *)
  not
    (List.exists
       (fun line ->
         String.lowercase_ascii line = "connection: close")
       (String.split_on_char '\n' head |> List.map String.trim))

let respond conn ~status ~body ~keepalive =
  let headers =
    Printf.sprintf
      "HTTP/1.1 %s\r\nServer: kite-httpd\r\nContent-Length: %d\r\nConnection: %s\r\n\r\n"
      status (Bytes.length body)
      (if keepalive then "keep-alive" else "close")
  in
  Tcp.send conn (Bytes.of_string headers);
  if Bytes.length body > 0 then Tcp.send conn body

let body_cache : (int, Bytes.t) Hashtbl.t = Hashtbl.create 16

let body_of_size n =
  match Hashtbl.find_opt body_cache n with
  | Some b -> b
  | None ->
      let b = Bytes.init n (fun i -> Char.chr (0x20 + ((i * 31) mod 95))) in
      Hashtbl.add body_cache n b;
      b

let handle_connection t conn () =
  let rec serve () =
    match read_request conn with
    | None -> Tcp.close conn
    | Some head -> (
        Process.sleep cpu_per_request;
        let keepalive = wants_keepalive head in
        (match parse_request_line head with
        | Some ("GET", "/metrics") -> (
            (* Prometheus exposition of every registry in the wired sink:
               one scrape covers all machines of the run.  Not counted in
               [requests_served] — that is the file-workload counter the
               benchmarks read. *)
            match t.metrics with
            | Some sink ->
                let body =
                  Bytes.of_string
                    (Kite_metrics.Registry.to_prometheus
                       (Kite_metrics.Registry.registries sink))
                in
                respond conn ~status:"200 OK" ~body ~keepalive
            | None ->
                respond conn ~status:"404 Not Found"
                  ~body:(Bytes.of_string "metrics not enabled") ~keepalive)
        | Some ("GET", path) -> (
            match body_size_of_path path with
            | Some size ->
                let body = body_of_size size in
                t.requests_served <- t.requests_served + 1;
                t.bytes_served <- t.bytes_served + size;
                respond conn ~status:"200 OK" ~body ~keepalive
            | None ->
                respond conn ~status:"404 Not Found"
                  ~body:(Bytes.of_string "not found") ~keepalive)
        | Some _ ->
            respond conn ~status:"405 Method Not Allowed" ~body:Bytes.empty
              ~keepalive
        | None ->
            respond conn ~status:"400 Bad Request" ~body:Bytes.empty
              ~keepalive:false);
        if keepalive then serve () else Tcp.close conn)
  in
  serve ()

let start tcp ?metrics ~sched () =
  let port = 80 in
  let t = { sched; requests_served = 0; bytes_served = 0; metrics } in
  (match metrics with
  | None -> ()
  | Some sink ->
      (* The server's own workload counters, polled at scrape time. *)
      let r =
        Kite_metrics.Registry.create_in sink
          ~name:(Printf.sprintf "httpd:%d" port)
      in
      Kite_metrics.Registry.counter_fn r "kite_httpd_requests_total"
        ~help:"File requests served (2xx responses to /data/<n>)." []
        (fun () -> t.requests_served);
      Kite_metrics.Registry.counter_fn r "kite_httpd_bytes_total"
        ~help:"Body bytes served by file requests." []
        (fun () -> t.bytes_served));
  let listener = Tcp.listen tcp ~port in
  Process.spawn sched ~daemon:true ~name:"httpd-acceptor" (fun () ->
      let rec accept_loop () =
        let conn = Tcp.accept listener in
        Process.spawn sched ~name:"httpd-worker" (handle_connection t conn);
        accept_loop ()
      in
      accept_loop ());
  t

let requests_served t = t.requests_served
let bytes_served t = t.bytes_served
