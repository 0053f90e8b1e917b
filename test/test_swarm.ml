(* kite_swarm: seeded stress campaigns over the full split-driver path
   (traffic profiles x link impairments x mid-ramp crash/restart),
   determinism of SLO verdicts and histogram contents under a fixed
   seed, exactly-once block replay under flash-crowd load, convergence
   of the arrival process to its configured statistics, the Openloop
   determinism contract, and an explicit wall-clock budget so the suite
   stays a tier-1 citizen. *)

open Kite_sim
open Kite
module Swarm = Kite_swarm.Swarm
module Profile = Kite_swarm.Profile
module Slo = Kite_flight.Slo
module Registry = Kite_metrics.Registry
module Report = Kite_check.Report
module Check = Kite_check.Check
module Impair = Kite_net.Impair

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* The whole suite runs against this budget: the first test starts the
   clock, the last asserts we stayed inside it.  Campaigns here are
   sized as smoke passes — anything slower belongs in `kite_ctl swarm`
   or the bench harness, not tier 1. *)
let budget_s = 60.0
let clock = ref nan
let test_start_clock () = clock := Unix.gettimeofday ()

let profile_named name =
  match Profile.find name with
  | Some p -> p
  | None -> Alcotest.failf "unknown builtin profile %s" name

let impair_spec s =
  match Impair.spec_of_string s with
  | Ok spec -> spec
  | Error e -> Alcotest.failf "bad impair spec %S: %s" s e

(* ------------------------------------------------------------------ *)
(* Campaign runner: one httpd swarm on a fresh network testbed          *)
(* ------------------------------------------------------------------ *)

let httpd_driver (s : Scenario.net) =
  ignore (Kite_apps.Httpd.start s.Scenario.guest_tcp ~sched:s.Scenario.sched ());
  {
    Swarm.d_app = "httpd";
    d_connect =
      (fun () ->
        match
          Kite_apps.Clients.httpd s.Scenario.client_tcp
            ~dst:s.Scenario.guest_ip ()
        with
        | sess ->
            Some
              {
                Swarm.c_request =
                  (fun ~size ~slow ->
                    sess.Kite_apps.Clients.request ~size ~slow);
                c_close = sess.Kite_apps.Clients.close;
              }
        | exception _ -> None);
  }

(* Everything a rerun must reproduce bit-for-bit: request accounting,
   per-SLO verdicts, and the latency histogram's full bucket contents. *)
type digest = {
  d_offered : int;
  d_completed : int;
  d_errors : int;
  d_clients : int;
  d_verdicts : (string * bool) list;
  d_buckets : (float * float * int) list;
}

let run_campaign ?impair ?crash_at ~profile ~seed ~clients () =
  let report = Report.create () in
  Kite.Obs.run { Kite.Obs.none with check = Some report } @@ fun () ->
  let s =
    Scenario.network ~flavor:Scenario.Kite ~seed:(9000 + seed) ?impair ()
  in
  let reg = Registry.create ~name:"swarm-test" () in
  let r =
    Scenario.run s.Scenario.hv ~what:"swarm campaign" (fun finish ->
        Scenario.when_net_ready s (fun () ->
            (match crash_at with
            | Some at ->
                Scenario.crash_and_restart_net s ~flavor:Scenario.Kite ~at
                  ~on_restored:(fun ~downtime:_ -> ())
                  ()
            | None -> ());
            let driver = httpd_driver s in
            Swarm.run ~sched:s.Scenario.sched ~seed ~registry:reg ~profile
              ~clients ~driver ~on_done:finish ()))
  in
  let buckets =
    match Registry.hbuckets reg Swarm.metric [ ("app", "httpd") ] with
    | Some bs -> bs
    | None -> []
  in
  ( {
      d_offered = r.Swarm.sw_offered;
      d_completed = r.Swarm.sw_completed;
      d_errors = r.Swarm.sw_errors;
      d_clients = r.Swarm.sw_clients;
      d_verdicts =
        List.map
          (fun e -> (e.Slo.ev_name, e.Slo.ev_met))
          r.Swarm.sw_slos;
      d_buckets = buckets;
    },
    Report.errors report )

(* ------------------------------------------------------------------ *)
(* Seeded stress sweep                                                  *)
(* ------------------------------------------------------------------ *)

let profiles = [| "steady"; "web"; "flash"; "diurnal"; "drip" |]

let impairments =
  [|
    None;
    Some (lazy (impair_spec "loss=0.005,delay=100us,jitter=20us"));
    Some (lazy (impair_spec "loss=0.02,reorder=0.01,delay=200us"));
  |]

let test_seeded_stress_sweep () =
  for seed = 1 to 10 do
    let profile = profile_named profiles.(seed mod Array.length profiles) in
    let impair =
      match impairments.(seed mod Array.length impairments) with
      | Some l -> Some (Lazy.force l)
      | None -> None
    in
    (* Every other seed loses the driver domain mid-ramp and must ride
       out the restart. *)
    let crash_at = if seed mod 2 = 0 then Some (Time.ms 30) else None in
    let clients = 300 in
    let d, checker_errors =
      run_campaign ?impair ?crash_at ~profile ~seed ~clients ()
    in
    let tag = Printf.sprintf "seed %d" seed in
    check_int (tag ^ ": checker clean") 0 checker_errors;
    check_int (tag ^ ": every client fired") clients d.d_clients;
    check_int
      (tag ^ ": accounting exact")
      d.d_offered
      (d.d_completed + d.d_errors);
    check_bool (tag ^ ": population offered load") true (d.d_offered >= clients);
    if impair = None && crash_at = None then
      check_int (tag ^ ": clean link, zero request errors") 0 d.d_errors
  done

(* Same seed, same testbed, run twice: verdicts, accounting and the
   full histogram must match bit-for-bit — once on a clean link, once
   under the nastiest combination (impaired link plus a mid-ramp
   crash). *)
let test_determinism () =
  let cases =
    [
      ("clean", profile_named "web", None, None);
      ( "impaired+crash",
        profile_named "drip",
        Some (impair_spec "loss=0.01,reorder=0.01,delay=100us,jitter=50us"),
        Some (Time.ms 30) );
    ]
  in
  List.iter
    (fun (tag, profile, impair, crash_at) ->
      let run () =
        fst (run_campaign ?impair ?crash_at ~profile ~seed:3 ~clients:250 ())
      in
      let a = run () in
      let b = run () in
      check_bool (tag ^ ": identical digests") true (a = b);
      (* A different seed must actually change something — otherwise the
         comparison above is vacuous. *)
      let c =
        fst (run_campaign ?impair ?crash_at ~profile ~seed:4 ~clients:250 ())
      in
      check_bool (tag ^ ": seed is load-bearing") true
        (c.d_buckets <> a.d_buckets || c.d_offered <> a.d_offered))
    cases

(* ------------------------------------------------------------------ *)
(* Exactly-once block replay under flash-crowd load                     *)
(* ------------------------------------------------------------------ *)

let test_blk_flash_crowd_exactly_once () =
  let s = Scenario.storage ~flavor:Scenario.Kite () in
  let clients = 200 in
  let fill k = Char.chr (Char.code 'a' + (k mod 26)) in
  let front = s.Scenario.blkfront in
  let r, reconnects, verify_errors =
    Testbed.run s.Scenario.bhv ~what:"blk swarm and read-back"
      ~within:(Time.sec 600)
    @@ fun finish ->
    Scenario.when_blk_ready s (fun () ->
        Scenario.crash_and_restart_blk s ~flavor:Scenario.Kite ~at:(Time.ms 20)
          ~on_restored:(fun ~downtime:_ -> ())
          ();
        let seq = ref 0 in
        (* Client [k] owns sector [k] and stamps it with its own fill
           byte on every request: any lost or doubled-and-torn replay
           shows up in the read-back. *)
        let driver =
          {
            Swarm.d_app = "blk";
            d_connect =
              (fun () ->
                incr seq;
                let me = !seq in
                Some
                  {
                    Swarm.c_request =
                      (fun ~size:_ ~slow:_ ->
                        Kite_drivers.Blkfront.write front ~sector:me
                          (Bytes.make Kite_drivers.Blkfront.sector_size (fill me));
                        true);
                    c_close = (fun () -> ());
                  });
          }
        in
        (* Read-back: every client's sector carries exactly its fill
           byte. *)
        let verify r =
          let reconnects = Kite_drivers.Blkfront.reconnects front in
          Process.spawn s.Scenario.bsched ~name:"swarm-verify" (fun () ->
              let bad = ref 0 in
              for me = 1 to clients do
                Bytes.iter
                  (fun c -> if c <> fill me then incr bad)
                  (Kite_drivers.Blkfront.read front ~sector:me ~count:1)
              done;
              finish (r, reconnects, !bad))
        in
        (* Flash-crowd profile slowed to 2k sessions/s so the 50 ms flash
           window and the 20 ms crash both land inside the ramp. *)
        Swarm.run ~sched:s.Scenario.bsched ~seed:5
          ~profile:(profile_named "flash") ~rate:2_000.0 ~clients ~driver
          ~on_done:verify ())
  in
  check_int "every client fired" clients r.Swarm.sw_clients;
  check_int "writes never fail across the crash" 0 r.Swarm.sw_errors;
  check_int "every write acknowledged" r.Swarm.sw_offered r.Swarm.sw_completed;
  check_int "frontend reconnected once" 1 reconnects;
  check_int "exactly-once: every sector matches" 0 verify_errors

(* ------------------------------------------------------------------ *)
(* Arrival-process statistics                                           *)
(* ------------------------------------------------------------------ *)

(* Hill estimator for the tail index over the k largest of n samples:
   alpha_hat = k / sum_i ln (x_(i) / x_(k)). *)
let hill_alpha samples k =
  let sorted = List.sort (fun a b -> compare b a) samples in
  let top = List.filteri (fun i _ -> i < k) sorted in
  let xk = List.nth sorted k in
  let s = List.fold_left (fun acc x -> acc +. log (x /. xk)) 0.0 top in
  float_of_int k /. s

let test_arrival_statistics () =
  let n = 20_000 in
  let draws p seed =
    let rng = Rng.create seed in
    List.init n (fun _ -> float_of_int (Profile.gap p rng ~at:0))
  in
  let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
  (* Poisson (steady): the empirical rate converges tightly. *)
  let steady = profile_named "steady" in
  let expect = 1e9 /. Profile.rate steady in
  for seed = 1 to 5 do
    let m = mean (draws steady (100 + seed)) in
    check_bool
      (Printf.sprintf "poisson mean gap within 5%% (seed %d)" seed)
      true
      (Float.abs (m -. expect) /. expect < 0.05)
  done;
  (* Pareto (web, alpha = 1.5): infinite variance, so the mean gets a
     looser band, and the Hill estimator must recover the tail index. *)
  let web = profile_named "web" in
  let expect = 1e9 /. Profile.rate web in
  for seed = 1 to 5 do
    let xs = draws web (200 + seed) in
    let m = mean xs in
    check_bool
      (Printf.sprintf "pareto mean gap within 15%% (seed %d)" seed)
      true
      (Float.abs (m -. expect) /. expect < 0.15);
    let alpha = hill_alpha xs 1_000 in
    check_bool
      (Printf.sprintf "hill tail index near 1.5 (seed %d, got %.2f)" seed alpha)
      true
      (Float.abs (alpha -. 1.5) < 0.25)
  done

(* ------------------------------------------------------------------ *)
(* Openloop determinism contract                                        *)
(* ------------------------------------------------------------------ *)

(* The .mli promises arrival instants are a pure function of the
   arrival stream, rate and duration: enabling bursts and making every
   request dawdle must not move a single base arrival. *)
let test_openloop_determinism () =
  let record variant =
    let e = Engine.create () in
    let s = Process.scheduler e in
    let instants = ref [] in
    let done_ = ref None in
    let burst, burst_every =
      match variant with
      | `Plain -> (0, None)
      | `Perturbed -> (5, Some (Time.ms 2))
    in
    Kite_bench_tools.Openloop.run ~sched:s ~rng:(Rng.create 99) ~burst
      ?burst_every ~stop_after:500 ~rate:10_000.0 ~duration:(Time.ms 60)
      ~fire:(fun seq ->
        instants := Engine.now e :: !instants;
        (match variant with
        | `Perturbed -> Process.sleep (Time.us (1 + (seq mod 97)))
        | `Plain -> ());
        true)
      ~on_done:(fun r -> done_ := Some r)
      ();
    Engine.run_until e (Time.sec 120);
    (match !done_ with
    | None -> Alcotest.fail "openloop did not drain"
    | Some _ -> ());
    List.sort compare !instants
  in
  let plain = record `Plain in
  let plain' = record `Plain in
  check_bool "same stream, same instants" true (plain = plain');
  let perturbed = record `Perturbed in
  check_bool "bursts added arrivals" true
    (List.length perturbed > List.length plain);
  (* Multiset inclusion on the sorted instant lists: every base arrival
     survives at its exact instant. *)
  let rec included xs ys =
    match (xs, ys) with
    | [], _ -> true
    | _, [] -> false
    | x :: xt, y :: yt ->
        if x = y then included xt yt
        else if y < x then included xs yt
        else false
  in
  check_bool "base arrivals unmoved under bursts and slow requests" true
    (included plain perturbed)

(* ------------------------------------------------------------------ *)
(* Wall-clock budget                                                    *)
(* ------------------------------------------------------------------ *)

let test_wall_clock_budget () =
  let elapsed = Unix.gettimeofday () -. !clock in
  check_bool "suite clock started" true (not (Float.is_nan elapsed));
  if elapsed > budget_s then
    Alcotest.failf "swarm suite blew its tier-1 budget: %.1fs > %.0fs" elapsed
      budget_s

let suite =
  [
    ("start suite clock", `Quick, test_start_clock);
    ("seeded stress sweep", `Quick, test_seeded_stress_sweep);
    ("determinism under a fixed seed", `Quick, test_determinism);
    ("blk flash crowd exactly-once", `Quick, test_blk_flash_crowd_exactly_once);
    ("arrival statistics converge", `Quick, test_arrival_statistics);
    ("openloop determinism contract", `Quick, test_openloop_determinism);
    ("wall-clock budget", `Quick, test_wall_clock_budget);
  ]
