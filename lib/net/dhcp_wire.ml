type message_type = Discover | Offer | Request | Ack | Nak | Release

type t = {
  op : [ `Boot_request | `Boot_reply ];
  xid : int32;
  ciaddr : Ipv4addr.t;
  yiaddr : Ipv4addr.t;
  siaddr : Ipv4addr.t;
  chaddr : Macaddr.t;
  message_type : message_type;
  server_id : Ipv4addr.t option;
  requested_ip : Ipv4addr.t option;
  lease_time : int32 option;
}

let server_port = 67
let client_port = 68

let make ~op ~xid ~chaddr ~message_type ?(yiaddr = Ipv4addr.any)
    ?(siaddr = Ipv4addr.any) ?server_id ?requested_ip ?lease_time () =
  {
    op;
    xid;
    ciaddr = Ipv4addr.any;
    yiaddr;
    siaddr;
    chaddr;
    message_type;
    server_id;
    requested_ip;
    lease_time;
  }

let mt_code = function
  | Discover -> 1
  | Offer -> 2
  | Request -> 3
  | Ack -> 5
  | Nak -> 6
  | Release -> 7

let mt_of_code = function
  | 1 -> Some Discover
  | 2 -> Some Offer
  | 3 -> Some Request
  | 5 -> Some Ack
  | 6 -> Some Nak
  | 7 -> Some Release
  | _ -> None

let fixed_size = 240  (* header through the magic cookie *)

let encode t =
  (* Fixed part + generous options area. *)
  let opts = Buffer.create 32 in
  let add_opt code payload =
    Buffer.add_char opts (Char.chr code);
    Buffer.add_char opts (Char.chr (Bytes.length payload));
    Buffer.add_bytes opts payload
  in
  let u8 v =
    let b = Bytes.create 1 in
    Wire.set_u8 b 0 v;
    b
  in
  let u32 v =
    let b = Bytes.create 4 in
    Wire.set_u32 b 0 v;
    b
  in
  add_opt 53 (u8 (mt_code t.message_type));
  Option.iter (fun ip -> add_opt 54 (u32 (Ipv4addr.to_int32 ip))) t.server_id;
  Option.iter
    (fun ip -> add_opt 50 (u32 (Ipv4addr.to_int32 ip)))
    t.requested_ip;
  Option.iter (fun secs -> add_opt 51 (u32 secs)) t.lease_time;
  Buffer.add_char opts '\xff';  (* end option *)
  let options = Buffer.to_bytes opts in
  let b = Bytes.make (fixed_size + Bytes.length options) '\000' in
  Wire.set_u8 b 0 (match t.op with `Boot_request -> 1 | `Boot_reply -> 2);
  Wire.set_u8 b 1 1;  (* htype ethernet *)
  Wire.set_u8 b 2 6;  (* hlen *)
  Wire.set_u32 b 4 t.xid;
  Wire.set_u32 b 12 (Ipv4addr.to_int32 t.ciaddr);
  Wire.set_u32 b 16 (Ipv4addr.to_int32 t.yiaddr);
  Wire.set_u32 b 20 (Ipv4addr.to_int32 t.siaddr);
  Macaddr.write t.chaddr b ~off:28;
  Wire.set_u32 b 236 0x63825363l;  (* magic cookie *)
  Bytes.blit options 0 b fixed_size (Bytes.length options);
  b

let decode b =
  if Bytes.length b < fixed_size then None
  else if Wire.get_u32 b 236 <> 0x63825363l then None
  else
    let op =
      match Wire.get_u8 b 0 with
      | 1 -> Some `Boot_request
      | 2 -> Some `Boot_reply
      | _ -> None
    in
    match op with
    | None -> None
    | Some op ->
        let message_type = ref None in
        let server_id = ref None in
        let requested_ip = ref None in
        let lease_time = ref None in
        let rec opts i =
          if i < Bytes.length b then
            match Wire.get_u8 b i with
            | 0xff -> ()
            | 0 -> opts (i + 1)  (* pad *)
            | code ->
                if i + 1 >= Bytes.length b then ()
                else
                  let len = Wire.get_u8 b (i + 1) in
                  if i + 2 + len > Bytes.length b then ()
                  else begin
                    (match code with
                    | 53 when len = 1 ->
                        message_type := mt_of_code (Wire.get_u8 b (i + 2))
                    | 54 when len = 4 ->
                        server_id :=
                          Some (Ipv4addr.of_int32 (Wire.get_u32 b (i + 2)))
                    | 50 when len = 4 ->
                        requested_ip :=
                          Some (Ipv4addr.of_int32 (Wire.get_u32 b (i + 2)))
                    | 51 when len = 4 ->
                        lease_time := Some (Wire.get_u32 b (i + 2))
                    | _ -> ());
                    opts (i + 2 + len)
                  end
        in
        opts fixed_size;
        match !message_type with
        | None -> None
        | Some message_type ->
            Some
              {
                op;
                xid = Wire.get_u32 b 4;
                ciaddr = Ipv4addr.of_int32 (Wire.get_u32 b 12);
                yiaddr = Ipv4addr.of_int32 (Wire.get_u32 b 16);
                siaddr = Ipv4addr.of_int32 (Wire.get_u32 b 20);
                chaddr = Macaddr.of_bytes b ~off:28;
                message_type;
                server_id = !server_id;
                requested_ip = !requested_ip;
                lease_time = !lease_time;
              }
