type t = {
  n : int;
  mean : float;
  stdev : float;
  rsd_pct : float;
  min : float;
  max : float;
}

let mean xs =
  match xs with
  | [] -> invalid_arg "Summary.mean: empty"
  | _ ->
      let n = List.length xs in
      List.fold_left ( +. ) 0.0 xs /. float_of_int n

let stdev xs =
  match xs with
  | [] -> invalid_arg "Summary.stdev: empty"
  | [ _ ] -> 0.0
  | _ ->
      let m = mean xs in
      let n = List.length xs in
      let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
      sqrt (ss /. float_of_int (n - 1))

let rsd_pct xs =
  let m = mean xs in
  if m = 0.0 then 0.0 else 100.0 *. stdev xs /. abs_float m

let of_list xs =
  match xs with
  | [] -> invalid_arg "Summary.of_list: empty"
  | x :: _ ->
      let mn = List.fold_left Float.min x xs in
      let mx = List.fold_left Float.max x xs in
      let m = mean xs in
      let sd = stdev xs in
      {
        n = List.length xs;
        mean = m;
        stdev = sd;
        rsd_pct = (if m = 0.0 then 0.0 else 100.0 *. sd /. abs_float m);
        min = mn;
        max = mx;
      }

let percentile xs p =
  match xs with
  | [] -> invalid_arg "Summary.percentile: empty"
  | _ ->
      if p < 0.0 || p > 100.0 then invalid_arg "Summary.percentile: p";
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n = 1 then a.(0)
      else
        let rank = p /. 100.0 *. float_of_int (n - 1) in
        let lo = int_of_float (floor rank) in
        let hi = int_of_float (ceil rank) in
        if lo = hi then a.(lo)
        else
          let frac = rank -. float_of_int lo in
          a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 50.0
