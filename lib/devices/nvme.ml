open Kite_sim

let sector_size = 512

exception Out_of_range of string
exception Transient_error of string

type op = Read | Write | Flush

type segment = Kite_xen.Page.t * int * int

type command = {
  op : op;
  sector : int;
  len : int;  (* bytes *)
  sg : segment array;  (* the pages the transfer reads or fills *)
  done_ : Condition.t;
  mutable completed : bool;
}

(* The media is a sparse store of 64 KiB extents: extent [e] holds the
   device's bytes [e * extent_size, (e + 1) * extent_size).  An extent is
   made, zeroed, on its first write and overwritten in place after that.
   Extents are plain buffers, not pages: they draw no machine frame
   numbers.  Sixteen pages to an extent keep the table and the heap
   objects the GC walks few (512 for 32 MiB of written sectors), and a
   64 KiB buffer is still small beside the transfers that fill it. *)
let extent_size = 65536

(* What a never-written extent reads as: a piece is never longer than
   its page.  Only ever read. *)
let zeroes = Bytes.make Kite_xen.Page.size '\000'

type t = {
  name : string;
  sched : Process.sched;
  capacity_sectors : int;
  read_base : Time.span;
  cmd_overhead : Time.span;
  bandwidth_bps : float;
  extents : Bytes.t Int_table.t;
  queue : command Mailbox.t;
  (* Commands overlap their setup latency, but the flash media moves data
     at a fixed aggregate bandwidth: transfers are serialized on this
     cursor. *)
  mutable media_free_at : Time.t;
  mutable reads : int;
  mutable writes : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
  mutable fault : Kite_fault.Fault.t option;
}

(* Base latency of a write or flush command. *)
let write_base = Time.us 30

let capacity_sectors t = t.capacity_sectors

let transfer_time t len =
  int_of_float (float_of_int len /. t.bandwidth_bps *. 1e9)

(* Sleep through base latency (overlappable), then claim the media for the
   transfer portion (serialized across the queue). *)
let serve_io t base len =
  Process.sleep base;
  let engine = Process.engine t.sched in
  let now = Engine.now engine in
  let start = max now t.media_free_at in
  (* The controller's per-command processing serializes with the media:
     many small commands cost more than one merged large one. *)
  let finish = start + t.cmd_overhead + transfer_time t len in
  t.media_free_at <- finish;
  Process.sleep (finish - now)

let extent_for_write t e =
  match Int_table.find t.extents e with
  | b -> b
  | exception Not_found ->
      let b = Bytes.make extent_size '\000' in
      Int_table.add t.extents e b;
      b

(* The DMA, when the transfer completes: walk the page list and the media
   in step, copying each piece once between a page and its extent.  The
   extent in hand ([None] for a never-written one, on a read) is kept
   while the pieces stay inside it. *)
let dma t op ~sector sg =
  let pos = ref (sector * sector_size) in
  let cur = ref (-1) and ext = ref None in
  for k = 0 to Array.length sg - 1 do
    let page, off, len = sg.(k) in
    let moved = ref 0 in
    while !moved < len do
      let e = !pos / extent_size and e_off = !pos mod extent_size in
      let n = min (len - !moved) (extent_size - e_off) in
      if e <> !cur then begin
        cur := e;
        ext :=
          match op with
          | Write -> Some (extent_for_write t e)
          | Read | Flush -> Int_table.find_opt t.extents e
      end;
      (match (op, !ext) with
      | Read, Some b ->
          Kite_xen.Page.write_from page ~off:(off + !moved) b ~src_off:e_off
            ~len:n
      | Read, None ->
          Kite_xen.Page.write_from page ~off:(off + !moved) zeroes ~src_off:0
            ~len:n
      | Write, Some b ->
          Kite_xen.Page.read_into page ~off:(off + !moved) ~len:n b
            ~dst_off:e_off
      | Write, None | Flush, _ -> ());
      moved := !moved + n;
      pos := !pos + n
    done
  done

let worker t () =
  let rec loop () =
    let cmd = Mailbox.recv t.queue in
    (match cmd.op with
    | Read ->
        serve_io t t.read_base cmd.len;
        dma t Read ~sector:cmd.sector cmd.sg;
        t.reads <- t.reads + 1;
        t.bytes_read <- t.bytes_read + cmd.len
    | Write ->
        serve_io t write_base cmd.len;
        dma t Write ~sector:cmd.sector cmd.sg;
        t.writes <- t.writes + 1;
        t.bytes_written <- t.bytes_written + cmd.len
    | Flush -> Process.sleep write_base);
    cmd.completed <- true;
    Condition.broadcast cmd.done_;
    loop ()
  in
  loop ()

let create sched ~name ?(capacity_sectors = 976_773_168)
    ?(queue_depth = 32) ?(read_base = Time.us 25) ?(cmd_overhead = Time.us 4)
    ?(bandwidth_mbps = 1500.0) () =
  let t =
    {
      name;
      sched;
      capacity_sectors;
      read_base;
      cmd_overhead;
      bandwidth_bps = bandwidth_mbps *. 1e6;
      extents = Int_table.create 64;
      queue = Mailbox.create ();
      media_free_at = Time.zero;
      reads = 0;
      writes = 0;
      bytes_read = 0;
      bytes_written = 0;
      fault = None;
    }
  in
  for i = 1 to queue_depth do
    Process.spawn sched ~daemon:true
      ~name:(Printf.sprintf "nvme-%s-w%d" name i)
      (worker t)
  done;
  t

let check t sector count =
  if sector < 0 || count < 0 || sector + count > t.capacity_sectors then
    raise
      (Out_of_range
         (Printf.sprintf "nvme %s: sectors %d+%d out of range" t.name sector
            count))

let set_fault t f = t.fault <- f

let submit t cmd =
  (* Transient command failure (media busy, CRC hiccup): reported at
     submission, before the command reaches the queue, so the caller's
     retry resubmits the whole command. *)
  (match t.fault with
  | Some f
    when Kite_fault.Fault.fire f Kite_fault.Fault.Device_io ~key:t.name ->
      raise
        (Transient_error
           (Printf.sprintf "nvme %s: transient command failure" t.name))
  | _ -> ());
  Mailbox.send t.queue cmd;
  while not cmd.completed do
    Condition.wait cmd.done_
  done

(* Range and alignment are checked here, in the submitter's process,
   before the command reaches a worker. *)
let command t op ~sector sg =
  let len =
    Array.fold_left
      (fun acc (_, off, len) ->
        if off < 0 || len < 0 || off + len > Kite_xen.Page.size then
          invalid_arg
            (Printf.sprintf "Nvme: page range %d+%d out of bounds" off len);
        acc + len)
      0 sg
  in
  if len mod sector_size <> 0 then
    invalid_arg "Nvme: transfer length not sector-aligned";
  check t sector (len / sector_size);
  { op; sector; len; sg; done_ = Condition.create (); completed = false }

let read t ~sector sg = submit t (command t Read ~sector sg)
let write t ~sector sg = submit t (command t Write ~sector sg)
let flush t = submit t (command t Flush ~sector:0 [||])

let reads t = t.reads
let writes t = t.writes
let bytes_read t = t.bytes_read
let bytes_written t = t.bytes_written
