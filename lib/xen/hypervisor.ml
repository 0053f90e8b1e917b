open Kite_sim

type hypercall =
  | Grant_map
  | Grant_unmap
  | Grant_copy
  | Evtchn_send
  | Xenstore_op

let hypercall_index = function
  | Grant_map -> 0
  | Grant_unmap -> 1
  | Grant_copy -> 2
  | Evtchn_send -> 3
  | Xenstore_op -> 4

let hypercall_name = function
  | Grant_map -> "grant_map"
  | Grant_unmap -> "grant_unmap"
  | Grant_copy -> "grant_copy"
  | Evtchn_send -> "evtchn_send"
  | Xenstore_op -> "xenstore_op"

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
  mutable accts : acct option array;  (* by domid, made on first charge *)
}

(* A domain's accounting cells, so that a charge builds no key string
   and hashes nothing: its vCPU busy time, its per-vCPU occupancy
   cursors (concurrent work contends for the domain's vCPUs) and one
   cell per hypercall kind, by [hypercall_index]. *)
and acct = {
  busy : Metrics.counter;
  cpu_free_at : Time.t array;
  calls : call_acct option array;
}

(* One hypercall's count cell, with the tracer's handle for it on one
   domain, resolved against the tracer attached when it was last
   charged. *)
and call_acct = {
  total : Metrics.counter;
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
    accts = [||];
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
  let id = dom.Domain.id in
  if id >= Array.length t.accts then begin
    let accts = Array.make (max (id + 1) (2 * Array.length t.accts)) None in
    Array.blit t.accts 0 accts 0 (Array.length t.accts);
    t.accts <- accts
  end;
  match t.accts.(id) with
  | Some a -> a
  | None ->
      let a =
        {
          busy = Metrics.busy_counter t.metrics ("vcpu." ^ dom.Domain.name);
          cpu_free_at = Array.make (max 1 dom.Domain.vcpus) Time.zero;
          calls = Array.make 5 None;  (* one per [hypercall] *)
        }
      in
      t.accts.(id) <- Some a;
      a

(* Occupy the domain's vCPU for [span].  Domains with one vCPU contend:
   concurrent work queues behind the cursor.  Multi-vCPU domains are
   approximated as uncontended (the evaluation's DomU has 22 vCPUs and is
   never CPU-bound in these experiments). *)
let occupy t a span =
  Metrics.bump a.busy span;
  if span > 0 then begin
    let cursors = a.cpu_free_at in
    (* Run on the earliest-free vCPU. *)
    let best = ref 0 in
    for i = 1 to Array.length cursors - 1 do
      if cursors.(i) < cursors.(!best) then best := i
    done;
    let now = Engine.now t.engine in
    let free = cursors.(!best) in
    let start = if free > now then free else now in
    let finish = start + span in
    cursors.(!best) <- finish;
    Process.sleep (finish - now)
  end

let call_acct t a call =
  let i = hypercall_index call in
  match a.calls.(i) with
  | Some c -> c
  | None ->
      let c =
        {
          total = Metrics.counter t.metrics ("hypercall." ^ hypercall_name call);
          traced = None;
        }
      in
      a.calls.(i) <- Some c;
      c

let trace_op c tr dom call =
  match c.traced with
  | Some (tr', o) when tr' == tr -> o
  | _ ->
      let o =
        Kite_trace.Trace.op tr ~domain:dom.Domain.name
          ~op:("hypercall." ^ hypercall_name call)
      in
      c.traced <- Some (tr, o);
      o

let hypercall t dom call ~extra =
  let span = t.costs.Costs.hypercall_base + extra in
  let a = acct t dom in
  let c = call_acct t a call in
  Metrics.bump c.total 1;
  (match t.trace with
  | Some tr ->
      Kite_trace.Trace.charge tr ~at:(Engine.now t.engine)
        (trace_op c tr dom call) ~cost:span
  | None -> ());
  occupy t a span

let cpu_work t dom span =
  (match t.trace with
  | Some tr ->
      Kite_trace.Trace.cpu_work tr ~at:(Engine.now t.engine)
        ~domain:dom.Domain.name ~cost:span
  | None -> ());
  occupy t (acct t dom) span

let run t = Engine.run t.engine
let run_for t span = Engine.run_for t.engine span
