(* The 32 bits as an immediate int, sign-extended from bit 31: [compare]
   then orders exactly as [Int32.compare] on [to_int32] does, and the
   conversions to and from [int32] are the native ones. *)
type t = int

let sign_extend x = (x lsl (Sys.int_size - 32)) asr (Sys.int_size - 32)

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] ->
      let part p =
        match int_of_string_opt p with
        | Some v when v >= 0 && v < 256 -> v
        | Some _ | None -> invalid_arg ("Ipv4addr.of_string: " ^ s)
      in
      sign_extend
        ((part a lsl 24) lor (part b lsl 16) lor (part c lsl 8) lor part d)
  | _ -> invalid_arg ("Ipv4addr.of_string: " ^ s)

let to_string t =
  let b n = (t lsr n) land 0xff in
  Printf.sprintf "%d.%d.%d.%d" (b 24) (b 16) (b 8) (b 0)

let of_int32 = Int32.to_int
let to_int32 = Int32.of_int
let to_int t = t land 0xffff_ffff

let of_bytes b ~off =
  sign_extend
    ((Bytes.get_uint16_be b off lsl 16) lor Bytes.get_uint16_be b (off + 2))

let write t b ~off =
  Bytes.set_uint16_be b off ((t lsr 16) land 0xffff);
  Bytes.set_uint16_be b (off + 2) (t land 0xffff)

let any = 0
let broadcast = -1

let same_subnet a b ~netmask = a land netmask = b land netmask

let equal = Int.equal
let compare = Int.compare

module Table = Kite_sim.Int_table
