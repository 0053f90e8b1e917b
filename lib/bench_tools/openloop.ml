open Kite_sim

type result = { offered : int; completed : int; elapsed : Time.span }

let run ~sched ?rng ?(burst = 0) ?burst_every ?gap ?stop_after ~rate
    ~duration ~fire ~on_done () =
  let seed = 42 in
  let engine = Process.engine sched in
  let arrival_rng = match rng with Some r -> r | None -> Rng.create seed in
  (* Independent stream: bursts must not consume from (or be affected by)
     the arrival stream — see the .mli contract. *)
  let burst_rng = Rng.create (seed lxor 0x62757273 (* "burs" *)) in
  let mean_gap_ns = 1e9 /. rate in
  let t0 = Engine.now engine in
  let deadline = t0 + duration in
  let offered = ref 0 in
  let completed = ref 0 in
  let returned = ref 0 in
  let gens_open = ref 0 in
  let last_at = ref t0 in
  let finish_if_drained () =
    if !gens_open = 0 && !returned = !offered then
      on_done
        { offered = !offered; completed = !completed; elapsed = !last_at - t0 }
  in
  let arrival () =
    incr offered;
    let seq = !offered in
    (* Each request is its own process: a request stuck in a backlog
       must never hold back the arrival clock.  One shared name keeps
       the CPU profiler's (domain, process) cardinality bounded. *)
    Process.spawn sched ~name:"openloop-req" (fun () ->
        let ok = fire seq in
        if ok then incr completed;
        incr returned;
        last_at := max !last_at (Engine.now engine);
        finish_if_drained ())
  in
  let gen_exit () =
    decr gens_open;
    finish_if_drained ()
  in
  let next_gap =
    match gap with
    | Some f -> fun () -> f arrival_rng ~at:(Engine.now engine - t0)
    | None ->
        fun () -> int_of_float (Rng.exponential arrival_rng ~mean:mean_gap_ns)
  in
  let quota = match stop_after with Some n -> n | None -> max_int in
  incr gens_open;
  Process.spawn sched ~name:"openloop" (fun () ->
      let fired = ref 0 in
      while Engine.now engine < deadline && !fired < quota do
        arrival ();
        incr fired;
        Process.sleep (max 1 (next_gap ()))
      done;
      gen_exit ());
  match burst_every with
  | Some every when burst > 0 ->
      incr gens_open;
      Process.spawn sched ~name:"openloop-burst" (fun () ->
          (* Bursts ride a fixed lattice t0 + k·every, jittered from the
             burst stream by up to 10% of the period so two bursty
             generators never phase-lock.  Back-to-back arrivals at one
             instant: a transient spike the per-stage queueing
             histograms should absorb below the knee. *)
          let jitter_bound = max 1 (every / 10) in
          let rec go k =
            let at = t0 + (k * every) + Rng.int burst_rng jitter_bound in
            if at < deadline then begin
              Process.sleep (max 1 (at - Engine.now engine));
              if Engine.now engine < deadline then begin
                for _ = 1 to burst do
                  arrival ()
                done;
                go (k + 1)
              end
            end
          in
          go 1;
          gen_exit ())
  | _ -> ()
