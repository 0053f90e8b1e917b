type operation = Read | Write | Flush

type segment = {
  gref : Kite_xen.Grant_table.ref_;
  first_sect : int;
  last_sect : int;
}

type body =
  | Direct of segment list
  | Indirect of Kite_xen.Grant_table.ref_ list * int

type request = { req_id : int; op : operation; sector : int; body : body }

type response = { rsp_id : int; status : int }

let status_ok = 0
let status_error = -1

let max_direct_segments = 11
let max_indirect_segments = 32
let segments_per_indirect_page = 512

let segment_bytes s = (s.last_sect - s.first_sect + 1) * 512

let ring_order = 5

include Xenif.Mq

type ring = (request, response) Kite_xen.Ring.t

(* 8 bytes per descriptor: gref u32 | first u8 | last u8 | pad u16,
   big-endian.  Each buffer is exactly the descriptors it holds and is
   granted as it is ([Page.of_bytes]): the rest of the page reads as
   zeroes, as in a zeroed page. *)
let descriptor_buffers n =
  let per = segments_per_indirect_page in
  Array.init
    (max 1 ((n + per - 1) / per))
    (fun k -> Bytes.make (8 * min per (n - (k * per))) '\000')

let put_descriptor bufs i ~gref ~first_sect ~last_sect =
  let b = bufs.(i / segments_per_indirect_page)
  and off = i mod segments_per_indirect_page * 8 in
  Bytes.set_uint16_be b off ((gref lsr 16) land 0xffff);
  Bytes.set_uint16_be b (off + 2) (gref land 0xffff);
  Bytes.set b (off + 4) (Char.chr first_sect);
  Bytes.set b (off + 5) (Char.chr last_sect)

(* Reads only the [count * 8] bytes it parses, out of as many pages as
   they span, into segments of the caller's own. *)
let unpack_segments pages ~count =
  let buf = Bytes.create (count * 8) in
  let per = segments_per_indirect_page in
  if Array.length pages < (count + per - 1) / per then
    invalid_arg "Blkif.unpack_segments: too few pages";
  let first = ref 0 and k = ref 0 in
  while !first < count do
    let n = min per (count - !first) in
    Kite_xen.Page.read_into pages.(!k) ~off:0 ~len:(n * 8) buf
      ~dst_off:(!first * 8);
    first := !first + n;
    incr k
  done;
  Array.init count (fun i ->
      let off = i * 8 in
      {
        gref =
          (Bytes.get_uint16_be buf off lsl 16)
          lor Bytes.get_uint16_be buf (off + 2);
        first_sect = Bytes.get_uint8 buf (off + 4);
        last_sect = Bytes.get_uint8 buf (off + 5);
      })

type registry = ring Xenif.registry

let registry = Xenif.registry
let share = Xenif.share
let map r id =
  match Xenif.find r id with Some ring -> ring | None -> raise Not_found
