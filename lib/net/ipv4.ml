type protocol = Icmp | Tcp | Udp | Other_proto of int

let protocol_code = function
  | Icmp -> 1
  | Tcp -> 6
  | Udp -> 17
  | Other_proto c -> c

let protocol_of_code = function
  | 1 -> Icmp
  | 6 -> Tcp
  | 17 -> Udp
  | c -> Other_proto c

type header = {
  src : Ipv4addr.t;
  dst : Ipv4addr.t;
  protocol : protocol;
  ttl : int;
  id : int;  (* identification, shared by a datagram's fragments *)
  more_fragments : bool;
  frag_offset : int;  (* byte offset of this fragment's payload *)
}

let header_size = 20

let make_header ~src ~dst ~protocol ~ttl =
  { src; dst; protocol; ttl; id = 0; more_fragments = false; frag_offset = 0 }

(* The 20-byte header at [off], for a packet of [len] bytes in all. *)
let write_header b ~off h ~len =
  Wire.set_u8 b off 0x45;  (* version 4, IHL 5 *)
  Wire.set_u8 b (off + 1) 0;  (* DSCP *)
  Wire.set_u16 b (off + 2) len;
  Wire.set_u16 b (off + 4) h.id;
  (* flags (bit 13 = MF) and the 8-byte-unit fragment offset *)
  Wire.set_u16 b (off + 6)
    ((if h.more_fragments then 0x2000 else 0) lor (h.frag_offset / 8));
  Wire.set_u8 b (off + 8) h.ttl;
  Wire.set_u8 b (off + 9) (protocol_code h.protocol);
  Wire.set_u16 b (off + 10) 0;  (* checksum placeholder *)
  Ipv4addr.write h.src b ~off:(off + 12);
  Ipv4addr.write h.dst b ~off:(off + 16);
  Wire.set_u16 b (off + 10) (Wire.checksum b ~off ~len:header_size)

let encode h ~payload =
  let total = header_size + Bytes.length payload in
  let b = Bytes.create total in
  write_header b ~off:0 h ~len:total;
  Bytes.blit payload 0 b header_size (Bytes.length payload);
  b

let decode (s : Wire.slice) =
  let b = s.Wire.buf and o = s.Wire.off in
  if s.Wire.len < header_size then None
  else if Wire.get_u8 b o <> 0x45 then None
  else if Wire.checksum b ~off:o ~len:header_size <> 0 then None
  else
    let total = Wire.get_u16 b (o + 2) in
    if total > s.Wire.len || total < header_size then None
    else
      let flags_frag = Wire.get_u16 b (o + 6) in
      let h =
        {
          src = Ipv4addr.of_bytes b ~off:(o + 12);
          dst = Ipv4addr.of_bytes b ~off:(o + 16);
          protocol = protocol_of_code (Wire.get_u8 b (o + 9));
          ttl = Wire.get_u8 b (o + 8);
          id = Wire.get_u16 b (o + 4);
          more_fragments = flags_frag land 0x2000 <> 0;
          frag_offset = (flags_frag land 0x1fff) * 8;
        }
      in
      Some (h, Wire.sub s ~off:header_size ~len:(total - header_size))

let is_fragment h = h.more_fragments || h.frag_offset > 0

(* The pseudo-header's 16-bit words, summed without building it. *)
let pseudo_sum ~src ~dst ~protocol ~len =
  let words a =
    let a = Ipv4addr.to_int a in
    (a lsr 16) + (a land 0xffff)
  in
  words src + words dst + protocol_code protocol + (len land 0xffff)
