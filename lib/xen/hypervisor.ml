open Kite_sim

type t = {
  engine : Engine.t;
  sched : Process.sched;
  metrics : Metrics.t;
  costs : Costs.t;
  store : Xenstore.t;
  mutable domains : Domain.t list;  (* reversed creation order *)
  mutable next_domid : int;
  mutable trace : Kite_trace.Trace.t option;
  mutable mreg : Kite_metrics.Registry.t option;
  mutable path : Kite_path.Path.t option;
  (* Per-domain per-vCPU occupancy cursors: concurrent work contends for
     the domain's vCPUs. *)
  cpu_free_at : (int, Time.t array) Hashtbl.t;
  acct : (string, acct) Hashtbl.t;  (* by domain name *)
}

(* A domain's accounting cells, so that a charge builds no key string:
   its vCPU busy time and, per operation, the global and per-domain
   counts. *)
and acct = {
  busy : Metrics.counter;
  ops : (string, op_acct) Hashtbl.t;
}

(* One operation's cells on one domain, with the tracer's handle for it
   resolved against the tracer attached when it was last charged. *)
and op_acct = {
  total : Metrics.counter;
  per_domain : Metrics.counter;
  mutable traced : (Kite_trace.Trace.t * Kite_trace.Trace.op) option;
}

let create ?schedule_seed () =
  let engine = Engine.create ?schedule_seed () in
  let dom0 =
    { Domain.id = 0; name = "Dom0"; kind = Domain.Dom0; vcpus = 4; mem_mb = 8192 }
  in
  {
    engine;
    sched = Process.scheduler engine;
    metrics = Metrics.create ();
    costs = Costs.default;
    store = Xenstore.create ();
    domains = [ dom0 ];
    next_domid = 1;
    trace = None;
    mreg = None;
    path = None;
    cpu_free_at = Hashtbl.create 8;
    acct = Hashtbl.create 8;
  }

let engine t = t.engine
let sched t = t.sched
let metrics t = t.metrics
let costs t = t.costs
let store t = t.store
let now t = Engine.now t.engine
let trace t = t.trace

let set_trace t tr =
  t.trace <- tr;
  Process.set_trace t.sched tr

(* The continuous profiler: every occupancy charge is attributed to the
   domain and (through the scheduler's current-process stack) the
   process that paid it. *)
let set_path t p =
  t.path <- p;
  Process.set_path t.sched p

(* A domain's vCPU busy time already accumulates in its
   [Metrics.busy_counter] cell (see [occupy]); the registry just reads it
   back on each sampling tick, so attaching metrics costs the hot path
   nothing. *)
let register_domain_metrics t d =
  match t.mreg with
  | None -> ()
  | Some r ->
      Kite_metrics.Registry.counter_fn r "kite_sched_domain_busy_ns_total"
        ~help:"Cumulative vCPU busy time per domain (simulated ns)"
        [ ("domain", d.Domain.name) ]
        (fun () -> Metrics.busy t.metrics ("vcpu." ^ d.Domain.name))

let set_metrics t reg =
  t.mreg <- reg;
  match reg with
  | None -> ()
  | Some r ->
      Kite_metrics.Registry.gauge_fn r "kite_sched_processes_live"
        ~help:"Live cooperative processes" []
        (fun () -> float_of_int (Process.live t.sched));
      Kite_metrics.Registry.gauge_fn r "kite_sched_runq_depth"
        ~help:"Pending engine events (runnable queue depth)" []
        (fun () -> float_of_int (Engine.pending t.engine));
      List.iter (register_domain_metrics t) t.domains

let metrics_registry t = t.mreg

let dom0 t =
  match List.rev t.domains with d :: _ -> d | [] -> assert false

let create_domain t ~name ~kind ~vcpus ~mem_mb =
  if kind = Domain.Dom0 then invalid_arg "Hypervisor.create_domain: Dom0";
  let d = { Domain.id = t.next_domid; name; kind; vcpus; mem_mb } in
  t.next_domid <- t.next_domid + 1;
  t.domains <- d :: t.domains;
  (* Give the domain its xenstore home, owned by itself, as xl would. *)
  let home = Printf.sprintf "/local/domain/%d" d.Domain.id in
  Xenstore.mkdir t.store ~domid:0 ~path:home;
  Xenstore.set_owner t.store ~path:home ~domid:d.Domain.id;
  register_domain_metrics t d;
  d

let domains t = List.rev t.domains

let find_domain t id =
  List.find_opt (fun d -> d.Domain.id = id) t.domains

let spawn t dom ?daemon ~name body =
  Process.spawn t.sched ?daemon ~name:(dom.Domain.name ^ "/" ^ name) body

let acct t dom =
  match Hashtbl.find_opt t.acct dom.Domain.name with
  | Some a -> a
  | None ->
      let a =
        {
          busy = Metrics.busy_counter t.metrics ("vcpu." ^ dom.Domain.name);
          ops = Hashtbl.create 8;
        }
      in
      Hashtbl.add t.acct dom.Domain.name a;
      a

(* Occupy the domain's vCPU for [span].  Domains with one vCPU contend:
   concurrent work queues behind the cursor.  Multi-vCPU domains are
   approximated as uncontended (the evaluation's DomU has 22 vCPUs and is
   never CPU-bound in these experiments). *)
let occupy t dom span =
  Metrics.bump (acct t dom).busy span;
  (match t.path with
  | Some p -> Kite_path.Path.cpu_sample p ~domain:dom.Domain.name ~cost:span
  | None -> ());
  if span > 0 then begin
    let cursors =
      match Hashtbl.find_opt t.cpu_free_at dom.Domain.id with
      | Some a -> a
      | None ->
          let a = Array.make (max 1 dom.Domain.vcpus) Time.zero in
          Hashtbl.add t.cpu_free_at dom.Domain.id a;
          a
    in
    (* Run on the earliest-free vCPU. *)
    let best = ref 0 in
    Array.iteri (fun i at -> if at < cursors.(!best) then best := i) cursors;
    let now = Engine.now t.engine in
    let start = max now cursors.(!best) in
    let finish = start + span in
    cursors.(!best) <- finish;
    Process.sleep (finish - now)
  end

let trace_op c tr dom what =
  match c.traced with
  | Some (tr', o) when tr' == tr -> o
  | _ ->
      let o = Kite_trace.Trace.op tr ~domain:dom.Domain.name ~op:what in
      c.traced <- Some (tr, o);
      o

let charge t dom what span =
  let a = acct t dom in
  let c =
    match Hashtbl.find_opt a.ops what with
    | Some c -> c
    | None ->
        (* Per-domain breakdown for xentrace-style profiles. *)
        let c =
          {
            total = Metrics.counter t.metrics what;
            per_domain =
              Metrics.counter t.metrics
                (Printf.sprintf "dom.%s.%s" dom.Domain.name what);
            traced = None;
          }
        in
        Hashtbl.add a.ops what c;
        c
  in
  Metrics.bump c.total 1;
  Metrics.bump c.per_domain 1;
  (match t.trace with
  | Some tr ->
      Kite_trace.Trace.charge tr ~at:(Engine.now t.engine)
        (trace_op c tr dom what) ~cost:span
  | None -> ());
  occupy t dom span

let hypercall t dom name ~extra =
  charge t dom ("hypercall." ^ name) (t.costs.Costs.hypercall_base + extra)

let cpu_work t dom span =
  (match t.trace with
  | Some tr ->
      Kite_trace.Trace.cpu_work tr ~at:(Engine.now t.engine)
        ~domain:dom.Domain.name ~cost:span
  | None -> ());
  occupy t dom span

let run t = Engine.run t.engine
let run_for t span = Engine.run_for t.engine span
