open Kite_sim
open Kite_net

let row_size = 256

type backend =
  | Memory
  | Raw of {
      read : sector:int -> count:int -> Bytes.t;
      write : sector:int -> Bytes.t -> unit;
      buffer_pool_rows : int;
    }

type t = {
  backend : backend;
  tables : int;
  rows_per_table : int;
  cpu_per_query : Time.span;
  charge : Time.span -> unit;
  updated : Bytes.t Int_table.t;
      (* memory backend: the rows an UPDATE wrote, by [row_key] *)
  pool : (int * int, Bytes.t) Hashtbl.t;  (* buffer pool for Raw *)
  mutable pool_fifo : (int * int) list;  (* eviction order, coarse *)
  mutable queries : int;
  mutable pool_hits : int;
  mutable disk_reads : int;
}

(* Deterministic row content: sysbench fills c/pad with digit runs.
   Byte [i] of row [id] of [table] is the digit [(table + id + i) mod
   10], so every row is a window of one run of digits.  A fetch gets a
   fresh copy: [Tcp.send] keeps the buffer it is given. *)
let digits = Bytes.init (row_size + 10) (fun i -> Char.chr (0x30 + (i mod 10)))
let synth_row table id = Bytes.sub digits ((table + id) mod 10) row_size
let row_key t table id = (table * t.rows_per_table) + id

let sector_of t table id =
  (* Each table is a contiguous region; two rows per sector. *)
  let rows_total = t.rows_per_table in
  (table * rows_total / 2) + (id / 2)

let fetch_row t table id =
  match t.backend with
  | Memory -> (
      match Int_table.find_opt t.updated (row_key t table id) with
      | Some r -> r
      | None -> synth_row table id)
  | Raw { read; buffer_pool_rows; _ } -> (
      let key = (table, id) in
      match Hashtbl.find_opt t.pool key with
      | Some r ->
          t.pool_hits <- t.pool_hits + 1;
          r
      | None ->
          let sector = sector_of t table id in
          let raw = read ~sector ~count:1 in
          t.disk_reads <- t.disk_reads + 1;
          let off = id mod 2 * row_size in
          let r = Bytes.sub raw off row_size in
          Hashtbl.replace t.pool key r;
          t.pool_fifo <- key :: t.pool_fifo;
          if Hashtbl.length t.pool > buffer_pool_rows then begin
            (* Evict the oldest half in one sweep to amortize. *)
            let keep = buffer_pool_rows / 2 in
            let kept = ref [] in
            List.iteri
              (fun i k ->
                if i < keep then kept := k :: !kept
                else Hashtbl.remove t.pool k)
              t.pool_fifo;
            t.pool_fifo <- List.rev !kept
          end;
          r)

let store_row t table id data =
  match t.backend with
  | Memory -> Int_table.replace t.updated (row_key t table id) data
  | Raw { read; write; _ } ->
      let sector = sector_of t table id in
      let raw = read ~sector ~count:1 in
      let off = id mod 2 * row_size in
      Bytes.blit data 0 raw off row_size;
      write ~sector raw;
      Hashtbl.replace t.pool (table, id) data

let clamp t table id =
  let table = ((table mod t.tables) + t.tables) mod t.tables in
  let id = ((id mod t.rows_per_table) + t.rows_per_table) mod t.rows_per_table in
  (table, id)

let handle t conn () =
  let reply s = Tcp.send conn (Bytes.of_string s) in
  let charge () =
    t.queries <- t.queries + 1;
    if t.cpu_per_query > 0 then t.charge t.cpu_per_query
  in
  let rec serve () =
    match Tcp.recv_line conn with
    | None -> Tcp.close conn
    | Some cmd -> (
        match String.split_on_char ' ' (String.trim cmd) with
        | [ "BEGIN" ] | [ "COMMIT" ] ->
            reply "+OK\n";
            serve ()
        | [ "PSELECT"; tb; id ] ->
            charge ();
            let tb, id = clamp t (int_of_string tb) (int_of_string id) in
            let row = fetch_row t tb id in
            reply (Printf.sprintf "ROW %d\n" (Bytes.length row));
            Tcp.send conn row;
            serve ()
        | [ "RANGE"; tb; id; n ] ->
            charge ();
            let n = min 1000 (int_of_string n) in
            let tb, id = clamp t (int_of_string tb) (int_of_string id) in
            let rows =
              List.init n (fun i ->
                  fetch_row t tb ((id + i) mod t.rows_per_table))
            in
            let total = List.fold_left (fun a b -> a + Bytes.length b) 0 rows in
            reply (Printf.sprintf "ROWS %d %d\n" n total);
            List.iter (Tcp.send conn) rows;
            serve ()
        | [ ("SUM" | "ORDER"); tb; id; n ] ->
            charge ();
            let n = min 1000 (int_of_string n) in
            let tb, id = clamp t (int_of_string tb) (int_of_string id) in
            (* Aggregate over the range: touches every row, returns one
               value (sysbench's SUM/ORDER BY/DISTINCT queries). *)
            let acc = ref 0 in
            for i = 0 to n - 1 do
              let row = fetch_row t tb ((id + i) mod t.rows_per_table) in
              acc := !acc + Char.code (Bytes.get row 0)
            done;
            reply (Printf.sprintf "VAL %d\n" !acc);
            serve ()
        | [ "UPDATE"; tb; id; len ] -> (
            charge ();
            match Tcp.recv_exact conn ~len:(int_of_string len) with
            | Some data ->
                let tb, id = clamp t (int_of_string tb) (int_of_string id) in
                let row = Bytes.make row_size '\000' in
                Bytes.blit data 0 row 0 (min row_size (Bytes.length data));
                store_row t tb id row;
                reply "+OK\n";
                serve ()
            | None -> Tcp.close conn)
        | [ "" ] -> serve ()
        | _ ->
            reply "-ERR syntax\n";
            serve ())
  in
  serve ()

let start tcp ?(cpu_per_query = Time.us 8)
    ?(charge = fun span -> Process.sleep span) ~backend ~tables
    ~rows_per_table ~sched () =
  let t =
    {
      backend;
      tables;
      rows_per_table;
      cpu_per_query;
      charge;
      updated = Int_table.create 64;
      pool = Hashtbl.create 4096;
      pool_fifo = [];
      queries = 0;
      pool_hits = 0;
      disk_reads = 0;
    }
  in
  let listener = Tcp.listen tcp ~port:3306 in
  Process.spawn sched ~daemon:true ~name:"sqldb-acceptor" (fun () ->
      let rec loop () =
        let conn = Tcp.accept listener in
        Process.spawn sched ~name:"sqldb-worker" (handle t conn);
        loop ()
      in
      loop ());
  t

let queries t = t.queries
let buffer_pool_hits t = t.pool_hits
let disk_reads t = t.disk_reads
