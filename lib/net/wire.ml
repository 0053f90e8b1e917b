let get_u8 = Bytes.get_uint8
let set_u8 b i v = Bytes.set_uint8 b i (v land 0xff)
let get_u16 = Bytes.get_uint16_be
let set_u16 b i v = Bytes.set_uint16_be b i (v land 0xffff)
let get_u32 = Bytes.get_int32_be
let set_u32 = Bytes.set_int32_be

(* ------------------------------------------------------------------ *)
(* Slices                                                              *)
(* ------------------------------------------------------------------ *)

type slice = { buf : Bytes.t; off : int; len : int }

let of_bytes b = { buf = b; off = 0; len = Bytes.length b }

let sub s ~off ~len =
  if off < 0 || len < 0 || off + len > s.len then invalid_arg "Wire.sub";
  { buf = s.buf; off = s.off + off; len }

let shift s n = sub s ~off:n ~len:(s.len - n)
let to_bytes s = Bytes.sub s.buf s.off s.len
let length iov = List.fold_left (fun acc s -> acc + s.len) 0 iov

let gather iov ~off ~len =
  if off < 0 || len < 0 then invalid_arg "Wire.gather";
  let b = Bytes.create len in
  let rec go iov off at =
    if at < len then
      match iov with
      | [] -> invalid_arg "Wire.gather"
      | s :: rest ->
          if off >= s.len then go rest (off - s.len) at
          else begin
            let n = min (len - at) (s.len - off) in
            Bytes.blit s.buf (s.off + off) b at n;
            go rest 0 (at + n)
          end
  in
  go iov off 0;
  b

(* Position of the first [c] in [buf] within [\[i, stop)], or -1. *)
let rec scan buf c i stop =
  if i >= stop then -1
  else if Bytes.get buf i = c then i
  else scan buf c (i + 1) stop

let index iov c =
  let rec go at = function
    | [] -> None
    | s :: rest ->
        let i = scan s.buf c s.off (s.off + s.len) in
        if i >= 0 then Some (at + i - s.off) else go (at + s.len) rest
  in
  go 0 iov

let concat = function
  | [ s ] -> s
  | iov -> of_bytes (gather iov ~off:0 ~len:(length iov))

(* ------------------------------------------------------------------ *)
(* RFC 1071 checksum, eight bytes per load                             *)
(* ------------------------------------------------------------------ *)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external bswap16 : int -> int = "%bswap16"

let rec fold acc =
  if acc lsr 16 = 0 then acc else fold ((acc land 0xffff) + (acc lsr 16))

(* 2^16 = 1 modulo 0xffff, so a 32-bit half of a word stands for the sum
   of its two 16-bit words. *)
let[@inline] halves w =
  (Int64.to_int w land 0xffffffff) + Int64.to_int (Int64.shift_right_logical w 32)

(* The ones'-complement sum does not depend on byte order (RFC 1071
   §2(B)): add native-endian 64-bit words, four per iteration, as their
   32-bit halves, and swap the folded total once.  The 63-bit accumulator
   cannot overflow below 4 GiB.  A trailing odd byte is the high byte of
   a zero-padded word.  The result is the range's big-endian partial sum,
   folded to 16 bits; it is 0 exactly when every byte is. *)
let sum b ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Wire.sum";
  let acc = ref 0 and i = ref off in
  let blocks_end = off + (len land lnot 31) in
  while !i < blocks_end do
    let j = !i in
    acc :=
      !acc
      + halves (get64u b j)
      + halves (get64u b (j + 8))
      + halves (get64u b (j + 16))
      + halves (get64u b (j + 24));
    i := j + 32
  done;
  let words_end = off + (len land lnot 7) in
  while !i < words_end do
    acc := !acc + halves (get64u b !i);
    i := !i + 8
  done;
  let pairs_end = off + (len land lnot 1) in
  while !i < pairs_end do
    acc := !acc + get16u b !i;
    i := !i + 2
  done;
  if len land 1 = 1 then begin
    (* On a little-endian host the odd byte is the low byte of a native
       word, which the final swap turns into the high byte. *)
    let last = Bytes.get_uint8 b !i in
    acc := !acc + if Sys.big_endian then last lsl 8 else last
  end;
  if Sys.big_endian then fold !acc else bswap16 (fold !acc)

let finish acc = lnot (fold acc) land 0xffff
let checksum b ~off ~len = finish (sum b ~off ~len)

(* A range that starts at an odd position of the checksummed message has
   its bytes in swapped word halves. *)
let checksum_iov ~init iov =
  let acc, _ =
    List.fold_left
      (fun (acc, odd) s ->
        let p = sum s.buf ~off:s.off ~len:s.len in
        (acc + (if odd then bswap16 p else p), odd <> (s.len land 1 = 1)))
      (init, false) iov
  in
  finish acc
