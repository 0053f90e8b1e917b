type t = {
  base : float;
  factor : float;
  counts : (int, int ref) Hashtbl.t;  (* bucket index -> count *)
  mutable n : int;
  mutable sum : float;
}

let create ?(base = 0.001) ?(factor = 2.0) () =
  if base <= 0.0 || factor <= 1.0 then invalid_arg "Histogram.create";
  { base; factor; counts = Hashtbl.create 32; n = 0; sum = 0.0 }

let bucket_of t v =
  if v < t.base then 0
  else int_of_float (Float.log (v /. t.base) /. Float.log t.factor) + 1

let lower_bound t i = if i = 0 then 0.0 else t.base *. (t.factor ** float_of_int (i - 1))
let upper_bound t i = t.base *. (t.factor ** float_of_int i)

let add t v =
  let i = bucket_of t (max v 0.0) in
  (match Hashtbl.find_opt t.counts i with
  | Some r -> incr r
  | None -> Hashtbl.add t.counts i (ref 1));
  t.n <- t.n + 1;
  t.sum <- t.sum +. v

let add_list t = List.iter (add t)

let count t = t.n
let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n

let buckets t =
  Hashtbl.fold (fun i r acc -> (i, !r) :: acc) t.counts []
  |> List.sort compare
  |> List.map (fun (i, c) -> (lower_bound t i, upper_bound t i, c))

let quantile t q =
  if t.n = 0 then invalid_arg "Histogram.quantile: empty";
  if q < 0.0 || q > 1.0 then invalid_arg "Histogram.quantile: q";
  let target = q *. float_of_int t.n in
  let rec walk seen = function
    | [] -> invalid_arg "Histogram.quantile: unreachable"
    | [ (lo, hi, c) ] ->
        let into = Float.max 0.0 (target -. float_of_int seen) in
        lo +. ((hi -. lo) *. Float.min 1.0 (into /. float_of_int c))
    | (lo, hi, c) :: rest ->
        if float_of_int (seen + c) >= target then
          let into = Float.max 0.0 (target -. float_of_int seen) in
          lo +. ((hi -. lo) *. (into /. float_of_int c))
        else walk (seen + c) rest
  in
  walk 0 (buckets t)

let percentile t p = quantile t (p /. 100.)

let sparkline t =
  (* ASCII bars keep table column widths correct. *)
  let bars = [| '.'; ':'; '-'; '='; '+'; '*'; '#'; '@' |] in
  let bs = buckets t in
  match bs with
  | [] -> ""
  | _ ->
      let max_c = List.fold_left (fun a (_, _, c) -> max a c) 1 bs in
      String.init (List.length bs) (fun i ->
          let _, _, c = List.nth bs i in
          bars.(c * (Array.length bars - 1) / max_c))
