(* The 48 bits as an immediate int, big-endian: the first byte on the
   wire is bits 47-40.  So [compare] orders as the bytes do. *)
type t = int

let of_string s =
  let parts = String.split_on_char ':' s in
  if List.length parts <> 6 then
    invalid_arg ("Macaddr.of_string: " ^ s);
  List.fold_left
    (fun acc p ->
      match int_of_string_opt ("0x" ^ p) with
      | Some v when v >= 0 && v < 256 -> (acc lsl 8) lor v
      | Some _ | None -> invalid_arg ("Macaddr.of_string: " ^ s))
    0 parts

let to_string t =
  let byte i = (t lsr (40 - (8 * i))) land 0xff in
  String.concat ":" (List.init 6 (fun i -> Printf.sprintf "%02x" (byte i)))

let of_bytes b ~off =
  (Bytes.get_uint16_be b off lsl 32)
  lor (Bytes.get_uint16_be b (off + 2) lsl 16)
  lor Bytes.get_uint16_be b (off + 4)

let write t b ~off =
  Bytes.set_uint16_be b off (t lsr 32);
  Bytes.set_uint16_be b (off + 2) ((t lsr 16) land 0xffff);
  Bytes.set_uint16_be b (off + 4) (t land 0xffff)

let broadcast = 0xffff_ffff_ffff
let is_broadcast t = t = broadcast

(* 0x02 = locally administered, unicast; 0x4b = 'K' for Kite; then the
   low 32 bits of [n]. *)
let make_local n = 0x02_4b_00_00_00_00 lor (n land 0xffff_ffff)

let equal = Int.equal
let compare = Int.compare

module Table = Kite_sim.Int_table
