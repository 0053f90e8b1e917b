open Kite_sim
open Kite_net

(* Server CPU per command. *)
let cpu_per_op = Time.us 2

type t = {
  store : (string, Bytes.t) Hashtbl.t;
  mutable sets : int;
  mutable gets : int;
}

let handle t conn () =
  let rec serve () =
    match Tcp.recv_line conn with
    | None -> Tcp.close conn
    | Some cmd -> (
        Process.sleep cpu_per_op;
        match String.split_on_char ' ' (String.trim cmd) with
        | [ "SET"; key; len ] -> (
            match int_of_string_opt len with
            | Some n -> (
                match Tcp.recv_exact conn ~len:n with
                | Some payload ->
                    Hashtbl.replace t.store key payload;
                    t.sets <- t.sets + 1;
                    Tcp.send conn (Bytes.of_string "+OK\n");
                    serve ()
                | None -> Tcp.close conn)
            | None ->
                Tcp.send conn (Bytes.of_string "-ERR bad length\n");
                serve ())
        | [ "GET"; key ] ->
            t.gets <- t.gets + 1;
            (match Hashtbl.find_opt t.store key with
            | Some v ->
                Tcp.send conn
                  (Bytes.of_string (Printf.sprintf "$%d\n" (Bytes.length v)));
                Tcp.send conn v
            | None -> Tcp.send conn (Bytes.of_string "$-1\n"));
            serve ()
        | [ "" ] -> serve ()
        | _ ->
            Tcp.send conn (Bytes.of_string "-ERR unknown command\n");
            serve ())
  in
  serve ()

let start tcp ~sched () =
  let t = { store = Hashtbl.create 1024; sets = 0; gets = 0 } in
  let listener = Tcp.listen tcp ~port:6379 in
  Process.spawn sched ~daemon:true ~name:"kvstore-acceptor" (fun () ->
      let rec loop () =
        let conn = Tcp.accept listener in
        Process.spawn sched ~name:"kvstore-worker" (handle t conn);
        loop ()
      in
      loop ());
  t

let sets t = t.sets
let gets t = t.gets
let keys t = Hashtbl.length t.store
