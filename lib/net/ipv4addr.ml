type t = int32

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] ->
      let part p =
        match int_of_string_opt p with
        | Some v when v >= 0 && v < 256 -> Int32.of_int v
        | Some _ | None -> invalid_arg ("Ipv4addr.of_string: " ^ s)
      in
      let ( <<< ) x n = Int32.shift_left x n in
      Int32.logor
        (Int32.logor (part a <<< 24) (part b <<< 16))
        (Int32.logor (part c <<< 8) (part d))
  | _ -> invalid_arg ("Ipv4addr.of_string: " ^ s)

let to_string t =
  let b n = Int32.to_int (Int32.shift_right_logical t n) land 0xff in
  Printf.sprintf "%d.%d.%d.%d" (b 24) (b 16) (b 8) (b 0)

let of_int32 x = x
let to_int32 t = t

let any = 0l
let broadcast = 0xffffffffl

let same_subnet a b ~netmask =
  Int32.logand a netmask = Int32.logand b netmask

let equal = Int32.equal
