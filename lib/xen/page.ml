let size = 4096

(* [data] holds the page's first [Bytes.length data] bytes and the rest
   reads as zeroes.  Only {!of_bytes} makes such a short page, and its
   [data] is the caller's buffer: [shared] until the first write of any
   kind copies it out to a whole page of the page's own. *)
type t = { frame : int; mutable data : Bytes.t; mutable shared : bool }

let next_frame = ref 0

let make data =
  let f = !next_frame in
  incr next_frame;
  { frame = f; data; shared = false }

let alloc () = make (Bytes.make size '\000')

let check off len =
  if off < 0 || len < 0 || off + len > size then
    invalid_arg (Printf.sprintf "Page: range %d+%d out of bounds" off len)

(* Page contents are prime shared state: a frontend writing a frame after
   granting it while the backend copies from it is the classic split-driver
   race.  The hooks use the race detector's ambient scope — [active] is one
   global ref read when no detector is live, and the location string is
   only built once a detector is. *)
let race_read t site =
  if Kite_race.Race.active () then
    (* Page payloads are HB-checked but not RMW-armed: concurrent block
       rewrites are last-write-wins at the application level. *)
    Kite_race.Race.scoped_read ~arm:false
      ~loc:("page:" ^ string_of_int t.frame)
      ~site ()

let race_write t site =
  if Kite_race.Race.active () then
    Kite_race.Race.scoped_write ~loc:("page:" ^ string_of_int t.frame) ~site

(* A frontend granting the page that already holds its frame, as
   netfront does for Tx: the grantee's copy is the only one. *)
let of_bytes b =
  if Bytes.length b > size then invalid_arg "Page.of_bytes: longer than a page";
  let t = make b in
  t.shared <- true;
  race_write t "Page.write";
  t

(* Before any write: a shared page takes a whole copy of its own, so the
   caller's buffer never changes under it. *)
let own t =
  if t.shared then begin
    let full = Bytes.make size '\000' in
    Bytes.blit t.data 0 full 0 (Bytes.length t.data);
    t.data <- full;
    t.shared <- false
  end

(* Bytes [off, off + len) into [dst] at [dst_off], zeroes past the stored
   prefix. *)
let copy_out t ~off dst ~dst_off ~len =
  let stored = max 0 (min len (Bytes.length t.data - off)) in
  if stored > 0 then Bytes.blit t.data off dst dst_off stored;
  Bytes.fill dst (dst_off + stored) (len - stored) '\000'

let check_buf b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg
      (Printf.sprintf "Page: buffer range %d+%d out of bounds (length %d)" off
         len (Bytes.length b))

let read t ~off ~len =
  check off len;
  race_read t "Page.read";
  if off + len <= Bytes.length t.data then Bytes.sub t.data off len
  else begin
    let b = Bytes.create len in
    copy_out t ~off b ~dst_off:0 ~len;
    b
  end

let read_into t ~off ~len dst ~dst_off =
  check off len;
  check_buf dst dst_off len;
  race_read t "Page.read";
  copy_out t ~off dst ~dst_off ~len

let write_from t ~off src ~src_off ~len =
  check off len;
  check_buf src src_off len;
  race_write t "Page.write";
  own t;
  Bytes.blit src src_off t.data off len

let write t ~off b = write_from t ~off b ~src_off:0 ~len:(Bytes.length b)

let blit ~src ~src_off ~dst ~dst_off ~len =
  check src_off len;
  check dst_off len;
  race_read src "Page.blit";
  race_write dst "Page.blit";
  own dst;
  copy_out src ~off:src_off dst.data ~dst_off ~len

let fill t c =
  race_write t "Page.fill";
  own t;
  Bytes.fill t.data 0 size c
