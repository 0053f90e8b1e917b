type step = {
  st_mult : float;
  st_offered_rps : float;
  st_goodput_rps : float;
  st_p99_ms : float;
  st_p999_ms : float;
  st_errors : int;
}

type verdict = {
  vd_knee : int option;
  vd_collapse : int option;
  vd_peak_rps : float;
  vd_p999_bound_ms : float;
  vd_ok : bool;
  vd_reasons : string list;
}

(* The knee is the first step below [knee_frac] of its offered rate;
   collapse is goodput below [goodput_floor] of the peak; p999 may reach
   [p999_slack] times the drain bound. *)
let knee_frac = 0.9
let goodput_floor = 0.7
let p999_slack = 3.0

let knee steps =
  let rec go i = function
    | [] -> None
    | s :: rest ->
        if s.st_goodput_rps < knee_frac *. s.st_offered_rps then Some i
        else go (i + 1) rest
  in
  go 0 steps

let assess ~clients_per_step ~capacity_rps steps =
  let peak =
    List.fold_left (fun m s -> Float.max m s.st_goodput_rps) 0.0 steps
  in
  let p999_bound_ms =
    p999_slack *. float_of_int clients_per_step /. Float.max 1.0 capacity_rps
    *. 1e3
  in
  let k = knee steps in
  (* Collapse is only meaningful past the knee: below it goodput tracks
     the (still small) offered rate, not the backend's limit. *)
  let collapse =
    match k with
    | None -> None
    | Some ki ->
        let rec go i = function
          | [] -> None
          | s :: rest ->
              if i >= ki && s.st_goodput_rps < goodput_floor *. peak then
                Some i
              else go (i + 1) rest
        in
        go 0 steps
  in
  let reasons = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> reasons := m :: !reasons) fmt in
  (match k with
  | None -> fail "no saturation knee located (sweep never passed capacity)"
  | Some _ -> ());
  (match collapse with
  | Some i ->
      let s = List.nth steps i in
      fail "goodput collapsed at %.1fx: %.0f rps < %.0f%% of peak %.0f rps"
        s.st_mult s.st_goodput_rps (100.0 *. goodput_floor) peak
  | None -> ());
  List.iter
    (fun s ->
      if s.st_errors > 0 then
        fail "request errors at %.1fx: %d" s.st_mult s.st_errors;
      if (not (Float.is_nan s.st_p999_ms)) && s.st_p999_ms > p999_bound_ms then
        fail "p999 unbounded at %.1fx: %.1f ms > %.1f ms drain bound"
          s.st_mult s.st_p999_ms p999_bound_ms)
    steps;
  {
    vd_knee = k;
    vd_collapse = collapse;
    vd_peak_rps = peak;
    vd_p999_bound_ms = p999_bound_ms;
    vd_ok = !reasons = [];
    vd_reasons = List.rev !reasons;
  }
