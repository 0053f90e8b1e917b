(* Tests for the discrete-event engine and cooperative process package. *)

open Kite_sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

let test_heap_order () =
  let h = Heap.create () in
  List.iter
    (fun k -> ignore (Heap.add h ~key:k k))
    [ 5; 1; 9; 3; 7; 2; 8; 4; 6; 0 ];
  let out = ref [] in
  let rec drain () =
    match Heap.pop h with
    | None -> ()
    | Some (_, v) ->
        out := v :: !out;
        drain ()
  in
  drain ();
  Alcotest.(check (list int))
    "sorted" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (List.rev !out)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> ignore (Heap.add h ~key:7 v)) [ "a"; "b"; "c"; "d" ];
  let next () = match Heap.pop h with Some (_, v) -> v | None -> "?" in
  let x1 = next () in
  let x2 = next () in
  let x3 = next () in
  let x4 = next () in
  Alcotest.(check (list string))
    "insertion order on equal keys"
    [ "a"; "b"; "c"; "d" ]
    [ x1; x2; x3; x4 ]

let test_heap_interleaved () =
  let h = Heap.create () in
  ignore (Heap.add h ~key:3 3);
  ignore (Heap.add h ~key:1 1);
  check_int "min" 1 (Option.get (Heap.min_key h));
  (match Heap.pop h with
  | Some (k, v) ->
      check_int "key" 1 k;
      check_int "val" 1 v
  | None -> Alcotest.fail "empty");
  ignore (Heap.add h ~key:2 2);
  check_int "size" 2 (Heap.size h);
  check_int "min2" 2 (Option.get (Heap.min_key h))

let test_heap_empty () =
  let h = Heap.create () in
  check_bool "empty" true (Heap.is_empty h);
  check_bool "pop none" true (Heap.pop h = None);
  check_bool "min none" true (Heap.min_key h = None)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in nondecreasing key order" ~count:200
    QCheck.(list small_int)
    (fun keys ->
      let h = Heap.create () in
      List.iter (fun k -> ignore (Heap.add h ~key:k k)) keys;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some (k, _) -> drain (k :: acc)
      in
      let out = drain [] in
      out = List.sort compare keys)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Rng.bits64 a = Rng.bits64 b)
  done

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done

let test_rng_split_independent () =
  let a = Rng.create 1 in
  let b = Rng.split a in
  let xa = Rng.bits64 a and xb = Rng.bits64 b in
  check_bool "streams differ" true (xa <> xb)

let test_rng_float_range () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    check_bool "float range" true (v >= 0.0 && v < 2.5)
  done

let test_rng_gaussian_mean () =
  let r = Rng.create 11 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.gaussian r ~mean:10.0 ~stdev:2.0
  done;
  let mean = !sum /. float_of_int n in
  check_bool "mean near 10" true (abs_float (mean -. 10.0) < 0.1)

let test_rng_exponential_positive () =
  let r = Rng.create 13 in
  for _ = 1 to 1000 do
    check_bool "positive" true (Rng.exponential r ~mean:5.0 > 0.0)
  done

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule_at e (Time.us 30) (fun () -> log := 3 :: !log));
  ignore (Engine.schedule_at e (Time.us 10) (fun () -> log := 1 :: !log));
  ignore (Engine.schedule_at e (Time.us 20) (fun () -> log := 2 :: !log));
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  check_int "clock at last event" (Time.us 30) (Engine.now e)

let test_engine_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule_at e (Time.us 5) (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule_after e (Time.ms 1) (fun () -> fired := true) in
  Engine.cancel h;
  Engine.run e;
  check_bool "not fired" false !fired;
  check_bool "marked" true (Engine.cancelled h)

let test_engine_run_until () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule_at e (Time.ms i) (fun () -> incr count))
  done;
  Engine.run_until e (Time.ms 5);
  check_int "first five" 5 !count;
  check_int "clock advanced" (Time.ms 5) (Engine.now e);
  Engine.run e;
  check_int "rest" 10 !count

let test_engine_past_rejected () =
  let e = Engine.create () in
  ignore (Engine.schedule_at e (Time.ms 2) (fun () -> ()));
  Engine.run e;
  Alcotest.check_raises "past"
    (Invalid_argument
       "Engine.schedule_at: 1000000 is in the past (now 2000000)") (fun () ->
      ignore (Engine.schedule_at e (Time.ms 1) (fun () -> ())))

let test_engine_cascading () =
  (* Events scheduling further events at the same instant run this step. *)
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule_at e (Time.us 1) (fun () ->
         log := "a" :: !log;
         ignore
           (Engine.schedule_at e (Time.us 1) (fun () -> log := "b" :: !log))));
  Engine.run e;
  Alcotest.(check (list string)) "cascade" [ "a"; "b" ] (List.rev !log)

(* A stop from inside an event ends the run at that event's instant;
   later events, one due at the same instant too, stay queued, and the
   next run resumes them in order. *)
let test_engine_stop () =
  let e = Engine.create () in
  let log = ref [] in
  let at t name f =
    ignore
      (Engine.schedule_at e t (fun () ->
           log := name :: !log;
           f ()))
  in
  let fired () = List.rev !log in
  at (Time.ms 1) "a" ignore;
  at (Time.ms 2) "stop" (fun () -> Engine.stop e);
  at (Time.ms 2) "b" ignore;
  at (Time.ms 3) "c" ignore;
  Engine.run_until e (Time.ms 10);
  Alcotest.(check (list string)) "fired up to the stop" [ "a"; "stop" ]
    (fired ());
  check_int "clock at the stopping event" (Time.ms 2) (Engine.now e);
  check_int "later events still queued" 2 (Engine.pending e);
  Engine.run_for e (Time.ms 10);
  Alcotest.(check (list string)) "resumed in order" [ "a"; "stop"; "b"; "c" ]
    (fired ());
  check_int "the stop did not stick" (Time.ms 12) (Engine.now e);
  at (Time.ms 13) "stop again" (fun () -> Engine.stop e);
  at (Time.ms 14) "d" ignore;
  Engine.run e;
  check_int "run stops too" (Time.ms 13) (Engine.now e);
  check_int "d still queued" 1 (Engine.pending e);
  Engine.stop e;
  Engine.run e;
  check_int "a stop outside a run does nothing" 0 (Engine.pending e);
  check_int "clock at the last event" (Time.ms 14) (Engine.now e)

(* ------------------------------------------------------------------ *)
(* Process                                                             *)
(* ------------------------------------------------------------------ *)

let run_sim f =
  let e = Engine.create () in
  let s = Process.scheduler e in
  f e s;
  Engine.run e;
  (e, s)

let test_process_sleep () =
  let wake = ref (-1) in
  let e, _ =
    run_sim (fun e s ->
        Process.spawn s ~name:"sleeper" (fun () ->
            Process.sleep (Time.ms 5);
            wake := Engine.now e))
  in
  ignore e;
  check_int "woke at 5ms" (Time.ms 5) !wake

let test_process_interleave () =
  let log = ref [] in
  let _ =
    run_sim (fun _ s ->
        Process.spawn s ~name:"a" (fun () ->
            log := "a1" :: !log;
            Process.sleep (Time.ms 2);
            log := "a2" :: !log);
        Process.spawn s ~name:"b" (fun () ->
            log := "b1" :: !log;
            Process.sleep (Time.ms 1);
            log := "b2" :: !log))
  in
  Alcotest.(check (list string))
    "interleaving" [ "a1"; "b1"; "b2"; "a2" ] (List.rev !log)

let test_process_yield () =
  let log = ref [] in
  let _ =
    run_sim (fun _ s ->
        Process.spawn s ~name:"a" (fun () ->
            log := "a1" :: !log;
            Process.yield ();
            log := "a2" :: !log);
        Process.spawn s ~name:"b" (fun () -> log := "b" :: !log))
  in
  Alcotest.(check (list string)) "yield lets b run" [ "a1"; "b"; "a2" ]
    (List.rev !log)

let test_process_live_count () =
  let e = Engine.create () in
  let s = Process.scheduler e in
  Process.spawn s ~name:"p" (fun () -> Process.sleep (Time.ms 1));
  check_int "one live" 1 (Process.live s);
  Engine.run e;
  check_int "none live" 0 (Process.live s)

let test_process_failure () =
  let e = Engine.create () in
  let s = Process.scheduler e in
  Process.spawn s ~name:"boom" (fun () -> failwith "bang");
  (try
     Engine.run e;
     Alcotest.fail "expected Process_failure"
   with Process.Process_failure (name, Failure msg) ->
     Alcotest.(check string) "name" "boom" name;
     Alcotest.(check string) "msg" "bang" msg)

let test_condition_signal () =
  let log = ref [] in
  let _ =
    run_sim (fun e s ->
        let c = Condition.create () in
        Process.spawn s ~name:"waiter" (fun () ->
            Condition.wait c;
            log := Engine.now e :: !log);
        Process.spawn s ~name:"signaler" (fun () ->
            Process.sleep (Time.ms 3);
            Condition.signal c))
  in
  Alcotest.(check (list int)) "woke at 3ms" [ Time.ms 3 ] !log

let test_condition_fifo () =
  let log = ref [] in
  let _ =
    run_sim (fun _ s ->
        let c = Condition.create () in
        for i = 1 to 3 do
          Process.spawn s ~name:"w" (fun () ->
              Condition.wait c;
              log := i :: !log)
        done;
        Process.spawn s ~name:"sig" (fun () ->
            Process.sleep (Time.us 1);
            Condition.signal c;
            Condition.signal c;
            Condition.signal c))
  in
  Alcotest.(check (list int)) "fifo wakeups" [ 1; 2; 3 ] (List.rev !log)

let test_condition_broadcast () =
  let woke = ref 0 in
  let _ =
    run_sim (fun _ s ->
        let c = Condition.create () in
        for _ = 1 to 5 do
          Process.spawn s ~name:"w" (fun () ->
              Condition.wait c;
              incr woke)
        done;
        Process.spawn s ~name:"b" (fun () ->
            Process.sleep (Time.us 1);
            Condition.broadcast c))
  in
  check_int "all woke" 5 !woke

let test_condition_timeout () =
  let out = ref `Signaled in
  let t = ref 0 in
  let _ =
    run_sim (fun e s ->
        let c = Condition.create () in
        Process.spawn s ~name:"w" (fun () ->
            out := Condition.timed_wait c (Time.ms 2);
            t := Engine.now e))
  in
  check_bool "timed out" true (!out = `Timeout);
  check_int "at 2ms" (Time.ms 2) !t

let test_condition_timed_wait_signaled () =
  let out = ref `Timeout in
  let _ =
    run_sim (fun _ s ->
        let c = Condition.create () in
        Process.spawn s ~name:"w" (fun () ->
            out := Condition.timed_wait c (Time.ms 10));
        Process.spawn s ~name:"s" (fun () ->
            Process.sleep (Time.ms 1);
            Condition.signal c))
  in
  check_bool "signaled" true (!out = `Signaled)

let test_condition_timeout_not_stealing () =
  (* After a timed_wait times out, its stale queue entry must not swallow a
     signal destined for a later waiter. *)
  let woke = ref false in
  let _ =
    run_sim (fun _ s ->
        let c = Condition.create () in
        Process.spawn s ~name:"t" (fun () ->
            ignore (Condition.timed_wait c (Time.ms 1)));
        Process.spawn s ~name:"w" (fun () ->
            Process.sleep (Time.ms 2);
            Condition.wait c;
            woke := true);
        Process.spawn s ~name:"s" (fun () ->
            Process.sleep (Time.ms 3);
            Condition.signal c))
  in
  check_bool "real waiter woke" true !woke

let test_mailbox_order () =
  let got = ref [] in
  let _ =
    run_sim (fun _ s ->
        let mb = Mailbox.create () in
        Process.spawn s ~name:"rx" (fun () ->
            for _ = 1 to 3 do
              got := Mailbox.recv mb :: !got
            done);
        Process.spawn s ~name:"tx" (fun () ->
            Mailbox.send mb 1;
            Process.sleep (Time.us 1);
            Mailbox.send mb 2;
            Mailbox.send mb 3))
  in
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_blocking_recv () =
  let t = ref 0 in
  let _ =
    run_sim (fun e s ->
        let mb = Mailbox.create () in
        Process.spawn s ~name:"rx" (fun () ->
            ignore (Mailbox.recv mb);
            t := Engine.now e);
        Process.spawn s ~name:"tx" (fun () ->
            Process.sleep (Time.ms 7);
            Mailbox.send mb ()))
  in
  check_int "recv completed at send time" (Time.ms 7) !t

let test_mailbox_timeout () =
  let out = ref (Some 0) in
  let _ =
    run_sim (fun _ s ->
        let mb : int Mailbox.t = Mailbox.create () in
        Process.spawn s ~name:"rx" (fun () ->
            out := Mailbox.recv_timeout mb (Time.ms 1)))
  in
  check_bool "timed out empty" true (!out = None)

(* Reads: an unknown name reads 0, and each name list is sorted and
   names a cell once, however many handles share it. *)
let test_metrics () =
  let m = Metrics.create () in
  check_int "unknown count" 0 (Metrics.count m "nope");
  check_int "unknown busy" 0 (Metrics.busy m "nope");
  List.iter
    (fun name -> Metrics.bump (Metrics.counter m name) 1)
    [ "nic.tx"; "hypercall.evtchn_send"; "nic.tx" ];
  List.iter
    (fun name -> Metrics.bump (Metrics.busy_counter m name) (Time.ms 5))
    [ "vcpu.b"; "vcpu.a"; "vcpu.b" ];
  Alcotest.(check (list string)) "counter names sorted, once"
    [ "hypercall.evtchn_send"; "nic.tx" ]
    (Metrics.names m);
  Alcotest.(check (list string)) "busy names sorted, once"
    [ "vcpu.a"; "vcpu.b" ] (Metrics.busy_names m);
  check_int "count" 2 (Metrics.count m "nic.tx");
  check_int "busy" (Time.ms 10) (Metrics.busy m "vcpu.b")

(* A handle enters the table on its first bump, and handles of one name
   share its cell; counters and busy times are separate namespaces. *)
let test_metrics_handles () =
  let m = Metrics.create () in
  let c = Metrics.counter m "nic.tx" and c' = Metrics.counter m "nic.tx" in
  let b = Metrics.busy_counter m "vcpu.d" in
  Alcotest.(check (list string)) "untouched handle not listed" []
    (Metrics.names m);
  Alcotest.(check (list string)) "untouched busy handle not listed" []
    (Metrics.busy_names m);
  Metrics.bump c 2;
  Alcotest.(check (list string)) "listed on first bump" [ "nic.tx" ]
    (Metrics.names m);
  Metrics.bump c' 1;
  Metrics.bump c 4;
  Metrics.bump b 7;
  check_int "shared cell" 7 (Metrics.count m "nic.tx");
  check_int "busy cell" 7 (Metrics.busy m "vcpu.d");
  check_int "busy namespace apart" 0 (Metrics.busy m "nic.tx");
  Alcotest.(check (list string)) "busy names" [ "vcpu.d" ]
    (Metrics.busy_names m)

let test_time_pp () =
  Alcotest.(check string) "ns" "17ns" (Time.to_string (Time.ns 17));
  Alcotest.(check string) "us" "2.00us" (Time.to_string (Time.us 2));
  Alcotest.(check string) "ms" "3.50ms" (Time.to_string (Time.ns 3_500_000));
  Alcotest.(check string) "s" "2.000s" (Time.to_string (Time.sec 2))

let prop_sleep_accumulates =
  QCheck.Test.make ~name:"sequential sleeps accumulate" ~count:50
    QCheck.(list_of_size Gen.(1 -- 10) (1 -- 1000))
    (fun spans ->
      let e = Engine.create () in
      let s = Process.scheduler e in
      let finish = ref 0 in
      Process.spawn s ~name:"p" (fun () ->
          List.iter (fun sp -> Process.sleep (Time.us sp)) spans;
          finish := Engine.now e);
      Engine.run e;
      !finish = Time.us (List.fold_left ( + ) 0 spans))

(* ------------------------------------------------------------------ *)
(* Engine against a reference model                                    *)
(* ------------------------------------------------------------------ *)

(* The reference queue is a plain list: the next event is the least
   (instant, prio, seq) among those neither fired nor cancelled.  With a
   seed, the model draws each event's priority from its own [Rng] of the
   same seed, one draw per schedule, as the engine's explorer does. *)
type model_event = {
  id : int;
  at : Time.t;
  prio : int;
  kills : int option;
  mutable live : bool;
  mutable was_cancelled : bool;
}

(* [kills]: when the event fires it cancels the event with that index
   (modulo the events scheduled so far, itself included), fired or not. *)
type op =
  | At of int * int option
  | After of int * int option
  | Cancel of int
  | Until of int

let pp_op = function
  | At (d, k) ->
      Printf.sprintf "At(%d,%s)" d (Option.fold ~none:"-" ~some:string_of_int k)
  | After (d, k) ->
      Printf.sprintf "After(%d,%s)" d
        (Option.fold ~none:"-" ~some:string_of_int k)
  | Cancel k -> Printf.sprintf "Cancel %d" k
  | Until d -> Printf.sprintf "Until %d" d

(* Small offsets, so that many events share an instant and same-instant
   cancels happen. *)
let gen_engine_script =
  QCheck.Gen.(
    let kills = opt ~ratio:0.3 small_nat in
    pair (opt small_nat)
      (list_size (0 -- 80)
         (frequency
            [
              (3, map2 (fun d k -> At (d, k)) (0 -- 4) kills);
              (3, map2 (fun d k -> After (d, k)) (0 -- 4) kills);
              (2, map (fun k -> Cancel k) small_nat);
              (2, map (fun d -> Until d) (0 -- 5));
            ])))

let arb_engine_script =
  QCheck.make gen_engine_script ~print:(fun (seed, ops) ->
      Printf.sprintf "seed %s: %s"
        (Option.fold ~none:"none" ~some:string_of_int seed)
        (String.concat "; " (List.map pp_op ops)))

let prop_engine_model =
  QCheck.Test.make ~name:"engine matches a reference model" ~count:500
    arb_engine_script (fun (schedule_seed, ops) ->
      let e = Engine.create ?schedule_seed () in
      let rng = Option.map Rng.create schedule_seed in
      let model = ref [] and handles = ref [||] and n = ref 0 in
      let clock = ref Time.zero in
      let fired_e = ref [] and fired_m = ref [] in
      let find k = List.find (fun m -> m.id = k) !model in
      let cancel_m k =
        let m = find k in
        m.live <- false;
        m.was_cancelled <- true
      in
      let schedule at kills sched =
        let id = !n in
        incr n;
        let kills = Option.map (fun k -> k mod (id + 1)) kills in
        let prio =
          match rng with None -> 0 | Some r -> Rng.int r 0x40000000
        in
        model :=
          { id; at; prio; kills; live = true; was_cancelled = false } :: !model;
        let h =
          sched (fun () ->
              fired_e := id :: !fired_e;
              Option.iter (fun k -> Engine.cancel !handles.(k)) kills)
        in
        handles := Array.append !handles [| h |]
      in
      (* Fire the model's events due by [limit], least (at, prio, seq)
         first; seq is [id], since both count every schedule. *)
      let rec run_model limit =
        let due =
          List.filter (fun m -> m.live && m.at <= limit) !model
          |> List.sort (fun a b ->
                 compare (a.at, a.prio, a.id) (b.at, b.prio, b.id))
        in
        match due with
        | [] -> ()
        | m :: _ ->
            m.live <- false;
            clock := m.at;
            fired_m := m.id :: !fired_m;
            Option.iter cancel_m m.kills;
            run_model limit
      in
      let agrees () =
        Engine.now e = !clock
        && Engine.pending e
           = List.length (List.filter (fun m -> m.live) !model)
        && !fired_e = !fired_m
      in
      let step op =
        (match op with
        | At (d, kills) ->
            schedule (!clock + d) kills (Engine.schedule_at e (!clock + d))
        | After (d, kills) ->
            schedule (!clock + d) kills (Engine.schedule_after e d)
        | Cancel k ->
            if !n > 0 then begin
              Engine.cancel !handles.(k mod !n);
              cancel_m (k mod !n)
            end
        | Until d ->
            let limit = !clock + d in
            Engine.run_until e limit;
            run_model limit;
            if !clock < limit then clock := limit);
        agrees ()
      in
      List.for_all step ops
      && begin
           (* [run] stops at the last live instant. *)
           Engine.run e;
           run_model max_int;
           agrees ()
         end
      && List.for_all
           (fun m -> Engine.cancelled !handles.(m.id) = m.was_cancelled)
           !model)

(* One record per event: a schedule-and-fire of a static thunk at queue
   depth 1,000 allocates at most 10 minor words, and cancelled timers
   leave the queue at once instead of waiting out their instant. *)
let test_engine_event_budget () =
  let e = Engine.create () in
  for i = 1 to 1000 do
    ignore (Engine.schedule_at e (Time.sec 1 + i) ignore)
  done;
  let step () =
    ignore (Engine.schedule_after e 1 ignore);
    Engine.run_until e (Engine.now e + 1)
  in
  step ();
  let n = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    step ()
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  check_bool
    (Printf.sprintf "%.1f minor words per event <= 10" words)
    true (words <= 10.0);
  check_int "depth kept" 1000 (Engine.pending e);
  let e = Engine.create () in
  for _ = 1 to 10_000 do
    Engine.cancel (Engine.schedule_after e (Time.ms 500) ignore)
  done;
  check_int "cancelled timers leave the queue" 0 (Engine.pending e);
  Engine.run e;
  check_int "clock not dragged to a cancelled instant" Time.zero (Engine.now e)

(* An unarmed scheduler: a spawn, one sleep and the exit allocate at
   most 117 minor words per process, the figure from before each sink's
   cache moved into one per-process record (85 measured). *)
let test_spawn_alloc_budget () =
  let e = Engine.create () in
  let s = Process.scheduler e in
  let n = 10_000 in
  let body () = Process.sleep 1 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    Process.spawn s ~name:"p" body
  done;
  Engine.run e;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  check_bool
    (Printf.sprintf "%.1f minor words per spawn-sleep-exit <= 117" words)
    true (words <= 117.0);
  check_int "all exited" 0 (Process.live s)

(* An unarmed process's blocking points, measured inside the process over
   many blocks: a sleep allocates at most 22 minor words and a yield at
   most 18 (the effect, the handler's closure, the continuation and its
   cell, and the event).  The wake thunk is built once, at spawn, and the
   sinks' block kind only when one is armed. *)
let test_block_alloc_budget () =
  let e = Engine.create () in
  let s = Process.scheduler e in
  let n = 10_000 in
  let per_block block =
    let words = ref nan in
    Process.spawn s ~name:"p" (fun () ->
        block ();
        let before = Gc.minor_words () in
        for _ = 1 to n do
          block ()
        done;
        words := (Gc.minor_words () -. before) /. float_of_int n);
    Engine.run e;
    !words
  in
  let sleep = per_block (fun () -> Process.sleep 1) in
  let yield = per_block Process.yield in
  check_bool
    (Printf.sprintf "%.1f minor words per sleep <= 22" sleep)
    true (sleep <= 22.0);
  check_bool
    (Printf.sprintf "%.1f minor words per yield <= 18" yield)
    true (yield <= 18.0)

(* A suspension is resumed once: a second [resume], here from inside
   [register] itself, raises out of the engine loop. *)
let test_double_resume () =
  let e = Engine.create () in
  let s = Process.scheduler e in
  Process.spawn s ~name:"p" (fun () ->
      Process.suspend (fun _ resume ->
          resume ();
          resume ()));
  Alcotest.check_raises "second resume"
    (Invalid_argument "Process: double resume of a suspension") (fun () ->
      Engine.run e)

module Check = Kite_check.Check
module Report = Kite_check.Report
module Path = Kite_path.Path
module Race = Kite_race.Race
module Trace = Kite_trace.Trace

(* An armed process's sleep: with a checker armed it allocates no more
   than an unarmed sleep (22 minor words), and a counting tracer tapped
   by a path engine, with one CPU charge per step as [Hypervisor.cpu_work]
   makes, adds only its [`Sleep span] kind (25).  Each sink resolves the
   process once, through its per-process handle, and the profile reuses
   the cell of the process's last charge. *)
let test_armed_block_alloc_budget () =
  let per_sleep ~traced =
    let e = Engine.create () in
    let s = Process.scheduler e in
    let pa = Path.create () in
    Process.set_check s (Some (Check.create (Report.create ())));
    let charge =
      if not traced then ignore
      else begin
        let tr = Trace.create_in (Trace.sink ()) ~name:"t" in
        Path.tap_trace pa tr;
        Process.set_trace s (Some tr);
        fun domain -> Trace.cpu_work tr ~at:(Engine.now e) ~domain ~cost:1
      end
    in
    let domain = "Dom1" in
    let n = 10_000 in
    let words = ref nan in
    Process.spawn s ~name:"Dom1/worker" (fun () ->
        let block () =
          Process.sleep 1;
          charge domain
        in
        block ();
        let before = Gc.minor_words () in
        for _ = 1 to n do
          block ()
        done;
        words := (Gc.minor_words () -. before) /. float_of_int n);
    Engine.run e;
    if traced then
      check_int "every step charged" (n + 1) (Path.cpu_total_ns pa);
    !words
  in
  let armed = per_sleep ~traced:false in
  let traced = per_sleep ~traced:true in
  check_bool
    (Printf.sprintf "%.1f minor words per armed sleep <= 22" armed)
    true (armed <= 22.0);
  check_bool
    (Printf.sprintf "%.1f minor words per traced armed sleep <= 25" traced)
    true (traced <= 25.0)

(* A process registers with each sink lazily, against the instance the
   scheduler holds at its step: when the checker, race detector and
   tracer are replaced mid-run, a running process's later steps are
   attributed in the new sinks only, and the old ones see it as outside
   any process.  Each tracer is tapped by its own path engine, whose
   profile shows where the tracer put the process's CPU charges. *)
let test_handle_follows_sink () =
  let e = Engine.create () in
  let s = Process.scheduler e in
  let limit = 5 in
  let config = { Check.max_ops_without_block = limit } in
  let report1 = Report.create () and report2 = Report.create () in
  let c1 = Check.create ~config report1 and c2 = Check.create ~config report2 in
  let race1 = Report.create () and race2 = Report.create () in
  let r1 = Race.create race1 and r2 = Race.create race2 in
  let tr1 = Trace.create_in (Trace.sink ()) ~name:"t1"
  and tr2 = Trace.create_in (Trace.sink ()) ~name:"t2" in
  let pa1 = Path.create () and pa2 = Path.create () in
  Path.tap_trace pa1 tr1;
  Path.tap_trace pa2 tr2;
  Process.set_check s (Some c1);
  Process.set_race s (Some r1);
  Process.set_trace s (Some tr1);
  let domain = "Dom1" in
  let switched = ref false in
  (* One step's work, on both checkers and both tracers: a finding whose
     provenance is the current process, more operations than [limit] (a
     hog in the checker the worker is entered in, once per record), and
     a CPU charge; after the switch also a write through the ambient
     race scope. *)
  let work () =
    List.iter
      (fun c ->
        Check.write_denied c ~domid:1 ~path:"/probe";
        for id = 1 to limit do
          Check.tx_opened c ~id;
          Check.tx_closed c ~id
        done)
      [ c1; c2 ];
    List.iter
      (fun tr -> Trace.cpu_work tr ~at:(Engine.now e) ~domain ~cost:10)
      [ tr1; tr2 ];
    if !switched then Race.scoped_write ~loc:"shared" ~site:"worker.put"
  in
  Process.spawn s ~name:"Dom1/worker" (fun () ->
      for _ = 1 to 10 do
        work ();
        Process.sleep (Time.ms 1)
      done);
  ignore
    (Engine.schedule_at e (Time.ms 4 + 1) (fun () ->
         switched := true;
         Process.set_check s (Some c2);
         Process.set_race s (Some r2);
         Process.set_trace s (Some tr2)));
  (* A process spawned after the switch, with no edge to the worker,
     writing the same location.  It is the new detector's first
     registration, so a worker still speaking through its old handle
     would share its pid there, and the writes would look ordered. *)
  ignore
    (Engine.schedule_at e (Time.ms 6) (fun () ->
         Process.spawn s ~name:"Dom1/other" (fun () ->
             Process.sleep (Time.us 2_500);
             Race.scoped_write ~loc:"shared" ~site:"other.put")));
  Engine.run e;
  let provenances r rule =
    List.map
      (fun (f : Report.finding) -> f.Report.provenance)
      (Report.by_rule r rule)
  in
  (* Steps at 0-4 ms ran before the switch, 5-9 ms after. *)
  let w = "Dom1/worker" and none = "-" in
  Alcotest.(check (list string))
    "old checker: the worker, then outside any process"
    [ w; w; w; w; w; none; none; none; none; none ]
    (provenances report1 "xs-write-denied");
  Alcotest.(check (list string))
    "new checker: outside any process, then the worker"
    [ none; none; none; none; none; w; w; w; w; w ]
    (provenances report2 "xs-write-denied");
  Alcotest.(check (list string)) "old checker's hog" [ w ]
    (provenances report1 "sched-hog");
  Alcotest.(check (list string)) "new checker's hog, from its own record"
    [ w ]
    (provenances report2 "sched-hog");
  let busy pa thread =
    match
      List.find_opt
        (fun (d, t, _) -> d = domain && t = thread)
        (Path.profile pa)
    with
    | Some (_, _, ns) -> ns
    | None -> 0
  in
  (* Each path engine charges the worker for the steps it was entered
     in through its tracer, and the interrupt row for the others. *)
  check_int "old path: worker before the switch" 50 (busy pa1 "worker");
  check_int "old path: interrupt after the switch" 50 (busy pa1 "(interrupt)");
  check_int "new path: worker after the switch" 50 (busy pa2 "worker");
  check_int "new path: interrupt before the switch" 50
    (busy pa2 "(interrupt)");
  Alcotest.(check (list string)) "new detector attributes the writes"
    [ "Dom1/other"; w ]
    (List.sort compare (provenances race2 "race-unordered"));
  check_int "old detector saw no access" 0 (Report.count race1)

let suite =
  [
    ("heap ordering", `Quick, test_heap_order);
    ("heap fifo ties", `Quick, test_heap_fifo_ties);
    ("heap interleaved ops", `Quick, test_heap_interleaved);
    ("heap empty", `Quick, test_heap_empty);
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng int bounds", `Quick, test_rng_bounds);
    ("rng split independence", `Quick, test_rng_split_independent);
    ("rng float range", `Quick, test_rng_float_range);
    ("rng gaussian mean", `Quick, test_rng_gaussian_mean);
    ("rng exponential positive", `Quick, test_rng_exponential_positive);
    ("engine time ordering", `Quick, test_engine_ordering);
    ("engine same-time fifo", `Quick, test_engine_same_time_fifo);
    ("engine cancel", `Quick, test_engine_cancel);
    ("engine run_until", `Quick, test_engine_run_until);
    ("engine rejects past", `Quick, test_engine_past_rejected);
    ("engine cascading events", `Quick, test_engine_cascading);
    ("engine stop", `Quick, test_engine_stop);
    ("process sleep", `Quick, test_process_sleep);
    ("process interleave", `Quick, test_process_interleave);
    ("process yield", `Quick, test_process_yield);
    ("process live count", `Quick, test_process_live_count);
    ("process failure propagates", `Quick, test_process_failure);
    ("condition signal", `Quick, test_condition_signal);
    ("condition fifo", `Quick, test_condition_fifo);
    ("condition broadcast", `Quick, test_condition_broadcast);
    ("condition timeout", `Quick, test_condition_timeout);
    ("condition timed_wait signaled", `Quick, test_condition_timed_wait_signaled);
    ("condition timeout not stealing", `Quick, test_condition_timeout_not_stealing);
    ("mailbox order", `Quick, test_mailbox_order);
    ("mailbox blocking recv", `Quick, test_mailbox_blocking_recv);
    ("mailbox timeout", `Quick, test_mailbox_timeout);
    ("metrics", `Quick, test_metrics);
    ("metrics handles", `Quick, test_metrics_handles);
    ("time pretty-printing", `Quick, test_time_pp);
    QCheck_alcotest.to_alcotest prop_heap_sorts;
    QCheck_alcotest.to_alcotest prop_sleep_accumulates;
    QCheck_alcotest.to_alcotest prop_engine_model;
    ("engine event budget", `Quick, test_engine_event_budget);
    ("spawn alloc budget", `Quick, test_spawn_alloc_budget);
    ("process block alloc budget", `Quick, test_block_alloc_budget);
    ("process double resume raises", `Quick, test_double_resume);
    ("process armed block alloc budget", `Quick, test_armed_block_alloc_budget);
    ("process handle follows its sink", `Quick, test_handle_follows_sink);
  ]
