(* Splitmix64: fast, good-quality, and trivially splittable, which suits a
   simulator where each component owns an independent stream. *)

type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

let split t =
  let s = bits64 t in
  { state = mix s }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Mask to the native int's nonnegative range before reducing. *)
  let r = Int64.to_int (bits64 t) land max_int in
  r mod bound

let float t x =
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  x *. (r /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (bits64 t) 1L = 1L

let gaussian t ~mean ~stdev =
  (* Box-Muller; guard against log 0. *)
  let u1 = max 1e-12 (float t 1.0) in
  let u2 = float t 1.0 in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mean +. (stdev *. z)

let exponential t ~mean =
  let u = max 1e-12 (float t 1.0) in
  -.mean *. log u
