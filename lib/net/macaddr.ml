type t = string  (* 6 raw bytes *)

let of_string s =
  let parts = String.split_on_char ':' s in
  if List.length parts <> 6 then
    invalid_arg ("Macaddr.of_string: " ^ s);
  let b = Bytes.create 6 in
  List.iteri
    (fun i p ->
      match int_of_string_opt ("0x" ^ p) with
      | Some v when v >= 0 && v < 256 -> Bytes.set b i (Char.chr v)
      | Some _ | None -> invalid_arg ("Macaddr.of_string: " ^ s))
    parts;
  Bytes.to_string b

let to_string t =
  String.concat ":"
    (List.init 6 (fun i -> Printf.sprintf "%02x" (Char.code t.[i])))

let of_bytes b ~off = Bytes.sub_string b off 6

let write t b ~off = Bytes.blit_string t 0 b off 6

let broadcast = String.make 6 '\xff'
let is_broadcast t = t = broadcast

let make_local n =
  (* 0x02 = locally administered, unicast. *)
  let b = Bytes.create 6 in
  Bytes.set b 0 '\x02';
  Bytes.set b 1 '\x4b';  (* 'K' for Kite *)
  Bytes.set b 2 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 3 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 4 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 5 (Char.chr (n land 0xff));
  Bytes.to_string b

let equal = String.equal
