open Kite_sim
open Kite_net

type entry = { flags : int; data : Bytes.t }

(* Server CPU per command. *)
let cpu_per_op = Time.us 2

type t = {
  store : (string, entry) Hashtbl.t;
  mutable gets : int;
  mutable hits : int;
}

let crlf = "\r\n"

let handle t conn () =
  let reply s = Tcp.send conn (Bytes.of_string s) in
  let rec serve () =
    match Tcp.recv_line conn with
    | None -> Tcp.close conn
    | Some cmd -> (
        Process.sleep cpu_per_op;
        match String.split_on_char ' ' (String.trim cmd) with
        | [ "set"; key; flags; _exptime; bytes ] -> (
            match (int_of_string_opt flags, int_of_string_opt bytes) with
            | Some flags, Some n -> (
                let data = Tcp.recv_exact conn ~len:n in
                match (data, Tcp.recv_exact conn ~len:2 (* CRLF *)) with
                | Some data, Some _ ->
                    Hashtbl.replace t.store key { flags; data };
                    reply ("STORED" ^ crlf);
                    serve ()
                | _ -> Tcp.close conn)
            | _ ->
                reply ("CLIENT_ERROR bad command line" ^ crlf);
                serve ())
        | [ "get"; key ] ->
            t.gets <- t.gets + 1;
            (match Hashtbl.find_opt t.store key with
            | Some e ->
                t.hits <- t.hits + 1;
                reply
                  (Printf.sprintf "VALUE %s %d %d%s" key e.flags
                     (Bytes.length e.data) crlf);
                Tcp.send conn e.data;
                reply crlf;
                reply ("END" ^ crlf)
            | None -> reply ("END" ^ crlf));
            serve ()
        | [ "" ] -> serve ()
        | _ ->
            reply ("ERROR" ^ crlf);
            serve ())
  in
  serve ()

let start tcp ~sched () =
  let t = { store = Hashtbl.create 1024; gets = 0; hits = 0 } in
  let listener = Tcp.listen tcp ~port:11211 in
  Process.spawn sched ~daemon:true ~name:"memcache-acceptor" (fun () ->
      let rec loop () =
        let conn = Tcp.accept listener in
        Process.spawn sched ~name:"memcache-worker" (handle t conn);
        loop ()
      in
      loop ());
  t

let gets t = t.gets
let hits t = t.hits
