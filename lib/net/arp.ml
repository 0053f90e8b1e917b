type op = Request | Reply

type packet = {
  op : op;
  sender_mac : Macaddr.t;
  sender_ip : Ipv4addr.t;
  target_mac : Macaddr.t;
  target_ip : Ipv4addr.t;
}

let encode p =
  let b = Bytes.create 28 in
  Wire.set_u16 b 0 1;  (* htype: ethernet *)
  Wire.set_u16 b 2 0x0800;  (* ptype: ipv4 *)
  Wire.set_u8 b 4 6;  (* hlen *)
  Wire.set_u8 b 5 4;  (* plen *)
  Wire.set_u16 b 6 (match p.op with Request -> 1 | Reply -> 2);
  Macaddr.write p.sender_mac b ~off:8;
  Ipv4addr.write p.sender_ip b ~off:14;
  Macaddr.write p.target_mac b ~off:18;
  Ipv4addr.write p.target_ip b ~off:24;
  b

let decode (s : Wire.slice) =
  let b = s.Wire.buf and o = s.Wire.off in
  if s.Wire.len < 28 then None
  else if Wire.get_u16 b o <> 1 || Wire.get_u16 b (o + 2) <> 0x0800 then None
  else
    let op =
      match Wire.get_u16 b (o + 6) with
      | 1 -> Some Request
      | 2 -> Some Reply
      | _ -> None
    in
    match op with
    | None -> None
    | Some op ->
        Some
          {
            op;
            sender_mac = Macaddr.of_bytes b ~off:(o + 8);
            sender_ip = Ipv4addr.of_bytes b ~off:(o + 14);
            target_mac = Macaddr.of_bytes b ~off:(o + 18);
            target_ip = Ipv4addr.of_bytes b ~off:(o + 24);
          }

let request ~sender_mac ~sender_ip ~target_ip =
  {
    op = Request;
    sender_mac;
    sender_ip;
    target_mac = Macaddr.of_string "00:00:00:00:00:00";
    target_ip;
  }

let reply_to req ~my_mac =
  {
    op = Reply;
    sender_mac = my_mac;
    sender_ip = req.target_ip;
    target_mac = req.sender_mac;
    target_ip = req.sender_ip;
  }
