open Kite_sim
open Kite_net

type session = { request : size:int -> slow:bool -> bool; close : unit -> unit }

(* Drip-feed write: the request bytes leave in [drip_chunks] pieces,
   [drip_gap] apart, holding the server's connection open the whole
   time.  The last chunk carries no trailing gap. *)
let drip_chunks = 8
let drip_gap = Time.ms 2

let send_req conn buf ~slow =
  if not slow then Tcp.send conn buf
  else begin
    let n = Bytes.length buf in
    let chunks = max 1 (min drip_chunks n) in
    let per = max 1 ((n + chunks - 1) / chunks) in
    let off = ref 0 in
    while !off < n do
      let len = min per (n - !off) in
      Tcp.send conn (Bytes.sub buf !off len);
      off := !off + len;
      if !off < n then Process.sleep drip_gap
    done
  end

let close_quietly conn = try Tcp.close conn with _ -> ()

(* A SET request in one buffer: [hdr], then [size] value bytes, then
   [trailer]. *)
let set_request hdr ~size ~trailer =
  let h = String.length hdr and t = String.length trailer in
  let b = Bytes.create (h + size + t) in
  Bytes.blit_string hdr 0 b 0 h;
  Bytes.fill b h size 'v';
  Bytes.blit_string trailer 0 b (h + size) t;
  b

let httpd client_tcp ~dst () =
  let conn = Tcp.connect client_tcp ~dst ~port:80 in
  let request ~size ~slow =
    try
      let req =
        Bytes.of_string
          (Printf.sprintf "GET %s HTTP/1.1\r\nHost: swarm\r\n\r\n"
             (Httpd.path_for size))
      in
      send_req conn req ~slow;
      let ok = ref false in
      let clen = ref 0 in
      (match Tcp.recv_line conn with
      | Some status -> ok := String.length status >= 12 && status.[9] = '2'
      | None -> ());
      let rec headers () =
        match Tcp.recv_line conn with
        | Some "\r" | Some "" -> true
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
        | None -> false
      in
      let hdrs_ok = headers () in
      let body = Tcp.recv_exact conn ~len:!clen in
      !ok && hdrs_ok && body <> None
    with _ -> false
  in
  { request; close = (fun () -> close_quietly conn) }

let kvstore client_tcp ~dst ~key () =
  let conn = Tcp.connect client_tcp ~dst ~port:6379 in
  let stored = ref false in
  let request ~size ~slow =
    try
      if not !stored then begin
        let size = max 1 size in
        send_req conn
          (set_request (Printf.sprintf "SET %s %d\n" key size) ~size
             ~trailer:"")
          ~slow;
        match Tcp.recv_line conn with
        | Some "+OK" ->
            stored := true;
            true
        | _ -> false
      end
      else begin
        send_req conn
          (Bytes.of_string (Printf.sprintf "GET %s\n" key))
          ~slow;
        match Tcp.recv_line conn with
        | Some hdr when String.length hdr > 1 && hdr.[0] = '$' && hdr <> "$-1"
          ->
            let n = int_of_string (String.sub hdr 1 (String.length hdr - 1)) in
            Tcp.recv_exact conn ~len:n <> None
        | _ -> false
      end
    with _ -> false
  in
  { request; close = (fun () -> close_quietly conn) }

let memcache client_tcp ~dst ~key () =
  let conn = Tcp.connect client_tcp ~dst ~port:11211 in
  let stored = ref false in
  let request ~size ~slow =
    try
      if not !stored then begin
        let size = max 1 size in
        send_req conn
          (set_request (Printf.sprintf "set %s 0 0 %d\r\n" key size) ~size
             ~trailer:"\r\n")
          ~slow;
        match Tcp.recv_line conn with
        | Some hdr when String.trim hdr = "STORED" ->
            stored := true;
            true
        | _ -> false
      end
      else begin
        send_req conn
          (Bytes.of_string (Printf.sprintf "get %s\r\n" key))
          ~slow;
        match Tcp.recv_line conn with
        | Some hdr when String.length hdr >= 5 && String.sub hdr 0 5 = "VALUE"
          -> (
            match String.split_on_char ' ' (String.trim hdr) with
            | [ _; _; _; len ] ->
                let n = int_of_string len in
                (* data + CRLF, then the END line. *)
                Tcp.recv_exact conn ~len:(n + 2) <> None
                && Tcp.recv_line conn <> None
            | _ -> false)
        | _ -> false
      end
    with _ -> false
  in
  { request; close = (fun () -> close_quietly conn) }

let sqldb client_tcp ~dst ~table ~row () =
  let conn = Tcp.connect client_tcp ~dst ~port:3306 in
  let next = ref row in
  let request ~size ~slow =
    try
      let id = !next in
      incr next;
      (* Small requests are point selects; bigger ones become range
         scans covering roughly [size] bytes of rows. *)
      let n = max 1 (min 64 (size / Sqldb.row_size)) in
      let cmd =
        if n = 1 then Printf.sprintf "PSELECT %d %d\n" table id
        else Printf.sprintf "RANGE %d %d %d\n" table id n
      in
      send_req conn (Bytes.of_string cmd) ~slow;
      match Tcp.recv_line conn with
      | Some hdr -> (
          match String.split_on_char ' ' (String.trim hdr) with
          | [ "ROW"; len ] | [ "ROWS"; _; len ] ->
              Tcp.recv_exact conn ~len:(int_of_string len) <> None
          | _ -> false)
      | None -> false
    with _ -> false
  in
  { request; close = (fun () -> close_quietly conn) }
