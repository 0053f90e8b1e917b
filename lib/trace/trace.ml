(* Two modes.  A recording tracer stores every event for the exporters;
   a counting tracer stores none and keeps only the counts, profiles and
   open spans that the summary, the hypercall profile and the span
   observers read.  Both count the same events against the same limit.

   Event storage (recording): fixed-size chunks of int columns.  An
   event is one row across a chunk's columns: its time, duration (0 for
   instants), track, label, and up to [max_args] int arguments.  What
   repeats is interned once per tracer: a label is (phase, name,
   category, argument keys), a track is a thread id (tids are numbered
   per tracer, so a tid also names its domain's pid), and a string-valued
   argument is an id into the tracer's string table.  Nothing is
   rendered until [to_chrome_json].  The tracer is per simulated machine,
   so timestamps (simulated ns supplied by the instrumented layers) are
   monotone per process and comparable across the whole store. *)

module Export = Kite_stats.Export

(* A growable array: the tracer's interning tables are append-only. *)
module Vec = struct
  type 'a t = { mutable a : 'a array; mutable n : int; dummy : 'a }

  let create dummy = { a = [||]; n = 0; dummy }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (max 8 (2 * v.n)) v.dummy in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1
end

type phase = Instant | Complete

type arg = Int of string * int | Str of string * string

type label = {
  ph : phase;
  lname : string;
  cat : string;
  keys : string array;
  strs : bool array;  (* key i's value is a string-table id *)
}

let max_args = 4

(* The hooks' fixed labels, the same ids in every tracer. *)
let builtin =
  let l ?(ph = Instant) ?(args = []) cat lname =
    {
      ph;
      lname;
      cat;
      keys = Array.of_list (List.map fst args);
      strs = Array.of_list (List.map snd args);
    }
  in
  [|
    l "sched" "spawn";
    l "sched" "spawn" ~args:[ ("daemon", false) ];
    l "sched" "sleep" ~args:[ ("ns", false) ];
    l "sched" "yield";
    l "sched" "wait";
    l "sched" "wait" ~args:[ ("on", true) ];
    l "sched" "exit";
    l ~ph:Complete "cpu" "cpu_work";
    l "evtchn" "evtchn.send" ~args:[ ("port", false) ];
    l "evtchn" "evtchn.deliver" ~args:[ ("port", false) ];
    l "ring" "publish.req" ~args:[ ("batch", false); ("notify", false) ];
    l "ring" "publish.rsp" ~args:[ ("batch", false); ("notify", false) ];
    l "ring" "consume.req" ~args:[ ("batch", false) ];
    l "ring" "consume.rsp" ~args:[ ("batch", false) ];
  |]

let l_spawn = 0
let l_spawn_daemon = 1
let l_sleep = 2
let l_yield = 3
let l_wait = 4
let l_wait_on = 5
let l_exit = 6
let l_cpu_work = 7
let l_evtchn_send = 8
let l_evtchn_deliver = 9
let l_publish_req = 10
let l_publish_rsp = 11
let l_consume_req = 12
let l_consume_rsp = 13

let chunk_size = 1024

type chunk = {
  c_at : int array;
  c_dur : int array;
  c_track : int array;
  c_label : int array;
  c_args : int array;  (* [max_args] per event *)
}

let no_chunk =
  { c_at = [||]; c_dur = [||]; c_track = [||]; c_label = [||]; c_args = [||] }

(* A process as this tracer sees it: its ["Domain/thread"] name split
   once, its own track, the tid of its thread in each domain it has
   emitted in, the last label it waited on, and the CPU observer's cell
   of its last charge with that charge's domain string (compared by
   identity: the hypervisor passes each domain's one name string). *)
type proc = {
  p_domain : string;
  p_thread : string;
  mutable p_own : int;  (* its thread in [p_domain]; 0 until the first event *)
  mutable p_tids : int array;  (* by pid; 0 until interned *)
  mutable p_on : string;
  mutable p_on_id : int;  (* -1 until the first labelled wait *)
  mutable p_cpu_domain : string;  (* [unset] before the first charge *)
  mutable p_cpu_cell : int ref;
}

(* A charged operation on one domain: its label, and its exact
   hypercall aggregation. *)
type op = {
  o_domain : string;
  o_op : string;
  o_label : int;
  o_hypercall : bool;
  mutable o_pid : int;  (* 0 until the first charge *)
  mutable o_count : int;
  mutable o_total : int;
}

type span = {
  span_kind : string;
  span_key : string;
  span_id : int;
  span_begin_at : int;
  span_end_at : int;
  span_stages : (string * int * int) list;
}

(* An in-flight span: stages are collected as (name, start, args) marks,
   most recent first; span_end closes them into intervals.  A counting
   tracer keeps no args. *)
type open_span = {
  os_begin : int;
  mutable os_marks : (string * int * arg list) list;
}

module Itbl = Hashtbl.Make (Int)

(* The open spans of one (kind, key) pair, by id.  A tracer sees a few
   pairs (a span kind per device), found by a scan. *)
type span_class = {
  sc_kind : string;
  sc_key : string;
  sc_open : open_span Itbl.t;
  mutable sc_tid : int;  (* its Chrome track; 0 until its first end *)
}

type t = {
  tname : string;
  record : bool;
  limit : int;
  mutable n : int;
  mutable dropped : int;
  chunks : chunk Vec.t;
  mutable last : chunk;  (* the newest chunk *)
  labels : label Vec.t;
  strs : (string, int) Hashtbl.t;
  str_of : string Vec.t;
  (* Tracks: pid per domain name, tid per (pid, thread name), both from
     1 in first-seen order.  [pid_names] holds, per pid, the string last
     looked up for that name, so a caller passing the same string finds
     its pid by identity, without hashing it. *)
  pids : (string, int) Hashtbl.t;
  pid_names : string Vec.t;  (* pid - 1 *)
  tids : (int * string, int) Hashtbl.t;
  tid_pid : int Vec.t;  (* tid - 1 *)
  tid_names : string Vec.t;  (* tid - 1 *)
  (* Attribution stack maintained by proc_enter/proc_leave, in both
     modes; [irq] is the thread outside any process. *)
  stack : proc Vec.t;
  irq : proc;
  (* The CPU observer (the path engine's profile): the cell of a
     (domain, thread) pair, to which each positive charge is added. *)
  mutable cpu_cell : (domain:string -> process:string -> int ref) option;
  ops : (string * string, op) Hashtbl.t;
  (* Spans. *)
  classes : span_class Vec.t;
  mutable done_spans : span list;  (* reversed; recording only *)
  mutable done_count : int;
  (* Completed-span observers (the path and flight taps), in
     subscription order; a counting tracer with none builds no span
     record. *)
  mutable span_taps : (span -> unit) list;
  (* Hops/ends that arrived for spans never begun (or already ended):
     lost attribution, counted instead of silently vanishing. *)
  mutable orphan_hops : int;
  mutable orphan_ends : int;
}

(* "Domain/thread" process names (the [Hypervisor.spawn] convention) are
   split into their track components; bare names land on a "sim" track. *)
let split_name name =
  match String.index_opt name '/' with
  | Some i ->
      (String.sub name 0 i, String.sub name (i + 1) (String.length name - i - 1))
  | None -> ("sim", name)

(* Never a domain's name, so a fresh handle's first charge asks the
   observer for its cell. *)
let unset = "(unset)"
let no_cell = ref 0

let proc_of_parts p_domain p_thread =
  {
    p_domain;
    p_thread;
    p_own = 0;
    p_tids = [||];
    p_on = "";
    p_on_id = -1;
    p_cpu_domain = unset;
    p_cpu_cell = no_cell;
  }

let proc ~name =
  let domain, thread = split_name name in
  proc_of_parts domain thread

let no_class =
  { sc_kind = ""; sc_key = ""; sc_open = Itbl.create 1; sc_tid = 0 }

let make ~record ?(limit = 1_000_000) ?(name = "trace") () =
  let irq = proc_of_parts "sim" "(interrupt)" in
  let labels = Vec.create builtin.(0) in
  Array.iter (Vec.push labels) builtin;
  {
    tname = name;
    record;
    limit;
    n = 0;
    dropped = 0;
    chunks = Vec.create no_chunk;
    last = no_chunk;
    labels;
    strs = Hashtbl.create 16;
    str_of = Vec.create "";
    pids = Hashtbl.create 16;
    pid_names = Vec.create "";
    tids = Hashtbl.create 64;
    tid_pid = Vec.create 0;
    tid_names = Vec.create "";
    stack = Vec.create irq;
    irq;
    cpu_cell = None;
    ops = Hashtbl.create 16;
    classes = Vec.create no_class;
    done_spans = [];
    done_count = 0;
    span_taps = [];
    orphan_hops = 0;
    orphan_ends = 0;
  }

let create ?limit ?name () = make ~record:true ?limit ?name ()
let name t = t.tname
let events t = t.n
let dropped t = t.dropped

(* ------------------------------------------------------------------ *)
(* Run-wide default sink                                               *)
(* ------------------------------------------------------------------ *)

type sink = { s_record : bool; mutable members : t list (* reversed *) }

let sink ?(record = false) () = { s_record = record; members = [] }

let create_in s ~name =
  let t = make ~record:s.s_record ~name () in
  s.members <- t :: s.members;
  t

let traces s = List.rev s.members

let default_ref : sink option ref = ref None
let set_default v = default_ref := v
let default () = !default_ref

(* ------------------------------------------------------------------ *)
(* Interning and emission                                              *)
(* ------------------------------------------------------------------ *)

let rec pid_scan v domain i =
  if i = v.Vec.n then 0
  else if v.Vec.a.(i) == domain then i + 1
  else pid_scan v domain (i + 1)

(* A domain's pid: by the identity of the string last looked up for it,
   else by hashing the name, which also makes [domain] the string the
   next identity scan finds. *)
let pid_of t domain =
  match pid_scan t.pid_names domain 0 with
  | 0 -> (
      let v = t.pid_names in
      match Hashtbl.find_opt t.pids domain with
      | Some p ->
          v.Vec.a.(p - 1) <- domain;
          p
      | None ->
          Vec.push v domain;
          Hashtbl.add t.pids domain v.Vec.n;
          v.Vec.n)
  | p -> p

let intern_tid t pid thread =
  let key = (pid, thread) in
  match Hashtbl.find_opt t.tids key with
  | Some i -> i
  | None ->
      Vec.push t.tid_pid pid;
      Vec.push t.tid_names thread;
      let i = t.tid_pid.Vec.n in
      Hashtbl.add t.tids key i;
      i

(* The tid of [p]'s thread inside domain [pid]. *)
let tid_in t p pid =
  let a = p.p_tids in
  if pid < Array.length a && a.(pid) <> 0 then a.(pid)
  else begin
    let tid = intern_tid t pid p.p_thread in
    if pid >= Array.length a then begin
      let b = Array.make (pid + 4) 0 in
      Array.blit a 0 b 0 (Array.length a);
      p.p_tids <- b
    end;
    p.p_tids.(pid) <- tid;
    tid
  end

let str_id t s =
  match Hashtbl.find_opt t.strs s with
  | Some i -> i
  | None ->
      let i = t.str_of.Vec.n in
      Vec.push t.str_of s;
      Hashtbl.add t.strs s i;
      i

(* Labels outside the builtin set (charged operations, driver events,
   span stages) are few per tracer and are found by a scan. *)
let rec keys_match l i = function
  | [] -> i = Array.length l.keys
  | a :: rest ->
      i < Array.length l.keys
      && (match a with
         | Int (k, _) -> (not l.strs.(i)) && String.equal k l.keys.(i)
         | Str (k, _) -> l.strs.(i) && String.equal k l.keys.(i))
      && keys_match l (i + 1) rest

let label_id t ph name cat args =
  let v = t.labels in
  let rec scan i =
    if i = v.Vec.n then begin
      Vec.push v
        {
          ph;
          lname = name;
          cat;
          keys =
            Array.of_list
              (List.map (function Int (k, _) | Str (k, _) -> k) args);
          strs =
            Array.of_list
              (List.map (function Int _ -> false | Str _ -> true) args);
        };
      i
    end
    else
      let l = v.Vec.a.(i) in
      if
        l.ph = ph && String.equal l.cat cat && String.equal l.lname name
        && keys_match l 0 args
      then i
      else scan (i + 1)
  in
  scan 0

let fresh_chunk t =
  let c =
    {
      c_at = Array.make chunk_size 0;
      c_dur = Array.make chunk_size 0;
      c_track = Array.make chunk_size 0;
      c_label = Array.make chunk_size 0;
      c_args = Array.make (chunk_size * max_args) 0;
    }
  in
  Vec.push t.chunks c;
  t.last <- c;
  c

(* One event a counting tracer does not store: counted, or dropped at
   the limit, as [emit] would. *)
let count t =
  if t.n >= t.limit then t.dropped <- t.dropped + 1 else t.n <- t.n + 1

let emit t at dur track label a0 a1 a2 a3 =
  let n = t.n in
  if n >= t.limit then t.dropped <- t.dropped + 1
  else begin
    let i = n land (chunk_size - 1) in
    let c = if i = 0 then fresh_chunk t else t.last in
    c.c_at.(i) <- at;
    c.c_dur.(i) <- dur;
    c.c_track.(i) <- track;
    c.c_label.(i) <- label;
    let j = i * max_args in
    c.c_args.(j) <- a0;
    c.c_args.(j + 1) <- a1;
    c.c_args.(j + 2) <- a2;
    c.c_args.(j + 3) <- a3;
    t.n <- n + 1
  end

let arg_value t = function Int (_, v) -> v | Str (_, s) -> str_id t s

let emit_args t at dur track label args =
  match args with
  | [] -> emit t at dur track label 0 0 0 0
  | [ a ] -> emit t at dur track label (arg_value t a) 0 0 0
  | [ a; b ] -> emit t at dur track label (arg_value t a) (arg_value t b) 0 0
  | [ a; b; c ] ->
      emit t at dur track label (arg_value t a) (arg_value t b)
        (arg_value t c) 0
  | [ a; b; c; d ] ->
      emit t at dur track label (arg_value t a) (arg_value t b)
        (arg_value t c) (arg_value t d)
  | _ -> assert false (* [check_arity] refused it *)

(* An event takes at most [max] args; checked at the call, in both
   modes, since a counting tracer never builds the label. *)
let check_arity name max args =
  if List.compare_length_with args max > 0 then
    invalid_arg (Printf.sprintf "Trace: %s has more than %d args" name max)

let current t =
  let s = t.stack in
  if s.Vec.n = 0 then t.irq else s.Vec.a.(s.Vec.n - 1)

(* The track of the currently-running process's thread inside [domain]. *)
let cur_track t domain =
  let pid = pid_of t domain in
  tid_in t (current t) pid

(* ------------------------------------------------------------------ *)
(* Scheduler hooks                                                     *)
(* ------------------------------------------------------------------ *)

let proc_enter t p = Vec.push t.stack p

let proc_leave t = if t.stack.Vec.n > 0 then t.stack.Vec.n <- t.stack.Vec.n - 1

let own_track t p =
  if p.p_own = 0 then p.p_own <- tid_in t p (pid_of t p.p_domain);
  p.p_own

let proc_spawned t ~at p ~daemon =
  if not t.record then count t
  else
    let track = own_track t p in
    if daemon then emit t at 0 track l_spawn_daemon 1 0 0 0
    else emit t at 0 track l_spawn 0 0 0 0

let proc_blocked t ~at p ~kind =
  if not t.record then count t
  else
    let track = own_track t p in
    match kind with
    | `Sleep span -> emit t at 0 track l_sleep span 0 0 0
    | `Yield -> emit t at 0 track l_yield 0 0 0 0
    | `Suspend None -> emit t at 0 track l_wait 0 0 0 0
    | `Suspend (Some label) ->
        if not (p.p_on_id >= 0 && p.p_on == label) then begin
          p.p_on <- label;
          p.p_on_id <- str_id t label
        end;
        emit t at 0 track l_wait_on p.p_on_id 0 0 0

let proc_exited t ~at p =
  if not t.record then count t else emit t at 0 (own_track t p) l_exit 0 0 0 0

(* ------------------------------------------------------------------ *)
(* Hypervisor hooks                                                    *)
(* ------------------------------------------------------------------ *)

let hypercall_prefix = "hypercall."

let is_hypercall op =
  String.length op > 10 && String.sub op 0 10 = hypercall_prefix

let op t ~domain ~op =
  let key = (domain, op) in
  match Hashtbl.find_opt t.ops key with
  | Some o -> o
  | None ->
      let o =
        {
          o_domain = domain;
          o_op = op;
          o_label = (if t.record then label_id t Complete op "hv" [] else -1);
          o_hypercall = is_hypercall op;
          o_pid = 0;
          o_count = 0;
          o_total = 0;
        }
      in
      Hashtbl.add t.ops key o;
      o

(* Add a positive charge to the running process's cell: the cell of its
   last charge when the domain is the same string, otherwise the
   observer's, which then becomes its last. *)
let feed_cpu t domain cost =
  match t.cpu_cell with
  | Some cell when cost > 0 ->
      let p = current t in
      if p.p_cpu_domain != domain then begin
        p.p_cpu_cell <- cell ~domain ~process:p.p_thread;
        p.p_cpu_domain <- domain
      end;
      p.p_cpu_cell := !(p.p_cpu_cell) + cost
  | _ -> ()

let observe_cpu t cell =
  if Option.is_some t.cpu_cell then
    invalid_arg ("Trace.observe_cpu: " ^ t.tname ^ " has a CPU observer");
  t.cpu_cell <- Some cell

let charge t ~at o ~cost =
  feed_cpu t o.o_domain cost;
  if o.o_hypercall then begin
    o.o_count <- o.o_count + 1;
    o.o_total <- o.o_total + cost
  end;
  if not t.record then count t
  else begin
    if o.o_pid = 0 then o.o_pid <- pid_of t o.o_domain;
    emit t at cost (tid_in t (current t) o.o_pid) o.o_label 0 0 0 0
  end

let cpu_work t ~at ~domain ~cost =
  feed_cpu t domain cost;
  if not t.record then count t
  else emit t at cost (cur_track t domain) l_cpu_work 0 0 0 0

(* ------------------------------------------------------------------ *)
(* Event channels                                                      *)
(* ------------------------------------------------------------------ *)

let evtchn_send t ~at ~domain ~port =
  if not t.record then count t
  else emit t at 0 (cur_track t domain) l_evtchn_send port 0 0 0

let evtchn_deliver t ~at ~domain ~port =
  if not t.record then count t
  else
    let pid = pid_of t domain in
    emit t at 0 (tid_in t t.irq pid) l_evtchn_deliver port 0 0 0

(* ------------------------------------------------------------------ *)
(* Rings                                                               *)
(* ------------------------------------------------------------------ *)

type side = [ `Req | `Rsp ]

type ring = {
  rt : t;
  rname : string;
  rnow : unit -> int;
  mutable rtid : int;  (* 0 until the first event *)
  mutable req_run : int;
  mutable rsp_run : int;
}

let ring t ~name ~now =
  { rt = t; rname = name; rnow = now; rtid = 0; req_run = 0; rsp_run = 0 }

let ring_event r label a0 a1 =
  let t = r.rt in
  if not t.record then count t
  else begin
    if r.rtid = 0 then r.rtid <- intern_tid t (pid_of t "rings") r.rname;
    emit t (r.rnow ()) 0 r.rtid label a0 a1 0 0
  end

let ring_publish r side ~batch ~notify =
  if batch > 0 then
    ring_event r
      (match side with `Req -> l_publish_req | `Rsp -> l_publish_rsp)
      batch (Bool.to_int notify)

let ring_take r side ~got =
  match side with
  | `Req ->
      if got then r.req_run <- r.req_run + 1
      else if r.req_run > 0 then begin
        let n = r.req_run in
        r.req_run <- 0;
        ring_event r l_consume_req n 0
      end
  | `Rsp ->
      if got then r.rsp_run <- r.rsp_run + 1
      else if r.rsp_run > 0 then begin
        let n = r.rsp_run in
        r.rsp_run <- 0;
        ring_event r l_consume_rsp n 0
      end

(* ------------------------------------------------------------------ *)
(* Driver events                                                       *)
(* ------------------------------------------------------------------ *)

let driver t ~at ~domain ~name ~args =
  check_arity name max_args args;
  if not t.record then count t
  else
    let track = cur_track t domain in
    emit_args t at 0 track (label_id t Instant name "driver" args) args

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* The (kind, key) pair's class, or [no_class], whose table stays
   empty. *)
let rec find_class v kind key i =
  if i = v.Vec.n then no_class
  else
    let c = v.Vec.a.(i) in
    if String.equal c.sc_kind kind && String.equal c.sc_key key then c
    else find_class v kind key (i + 1)

let new_class t kind key =
  let c =
    { sc_kind = kind; sc_key = key; sc_open = Itbl.create 64; sc_tid = 0 }
  in
  Vec.push t.classes c;
  c

let span_begin t ~at ~kind ~key ~id ~stage =
  let c = find_class t.classes kind key 0 in
  let c = if c == no_class then new_class t kind key else c in
  Itbl.replace c.sc_open id { os_begin = at; os_marks = [ (stage, at, []) ] }

(* A stage is exported with the span id before its args, so a hop takes
   one arg fewer than an event. *)
let span_hop t ~at ~kind ~key ~id ~stage ~args =
  check_arity stage (max_args - 1) args;
  match Itbl.find (find_class t.classes kind key 0).sc_open id with
  | os ->
      let args = if t.record then args else [] in
      os.os_marks <- (stage, at, args) :: os.os_marks
  | exception Not_found -> t.orphan_hops <- t.orphan_hops + 1

(* Close the marks into consecutive intervals, oldest first. *)
let rec stages_of marks stop acc =
  match marks with
  | [] -> acc
  | (stage, start, _) :: older ->
      stages_of older start ((stage, start, stop) :: acc)

(* Render the marks as Chrome slices on the class's span track, newest
   first. *)
let emit_stages t c ~id ~at marks =
  if c.sc_tid = 0 then
    c.sc_tid <- intern_tid t (pid_of t "spans") (c.sc_kind ^ ":" ^ c.sc_key);
  ignore
    (List.fold_left
       (fun stop (stage, start, args) ->
         let args = Int ("id", id) :: args in
         emit_args t start (stop - start) c.sc_tid
           (label_id t Complete stage c.sc_kind args)
           args;
         start)
       at marks)

let span_end t ~at ~kind ~key ~id =
  let c = find_class t.classes kind key 0 in
  match Itbl.find c.sc_open id with
  | exception Not_found -> t.orphan_ends <- t.orphan_ends + 1
  | os ->
      Itbl.remove c.sc_open id;
      if t.record then emit_stages t c ~id ~at os.os_marks
      else List.iter (fun _ -> count t) os.os_marks;
      t.done_count <- t.done_count + 1;
      if t.record || t.span_taps <> [] then begin
        let sp =
          {
            span_kind = kind;
            span_key = key;
            span_id = id;
            span_begin_at = os.os_begin;
            span_end_at = at;
            span_stages = stages_of os.os_marks at [];
          }
        in
        if t.record then t.done_spans <- sp :: t.done_spans;
        match t.span_taps with [] -> () | taps -> List.iter (fun f -> f sp) taps
      end

let require_recording what t =
  if not t.record then
    invalid_arg
      (Printf.sprintf "Trace.%s: %s is a counting tracer (arm Trace.sink \
                       ~record:true)" what t.tname)

let spans t =
  require_recording "spans" t;
  List.rev t.done_spans

let span_count t = t.done_count

let open_spans t =
  let v = t.classes in
  let n = ref 0 in
  for i = 0 to v.Vec.n - 1 do
    n := !n + Itbl.length v.Vec.a.(i).sc_open
  done;
  !n
let add_span_observer t f = t.span_taps <- t.span_taps @ [ f ]
let orphan_hops t = t.orphan_hops
let orphan_ends t = t.orphan_ends

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON                                             *)
(* ------------------------------------------------------------------ *)

(* Timestamps are emitted in microseconds (the trace-event unit) with ns
   resolution preserved as fractional digits. *)
let add_ts b ns = Buffer.add_string b (Printf.sprintf "%.3f" (float_of_int ns /. 1000.))

(* A label's fixed text: the event object up to its timestamp, and each
   argument's quoted key with the opening quote of its value. *)
let render_label l =
  let head =
    Printf.sprintf "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":"
      (Export.json_escape l.lname) (Export.json_escape l.cat)
      (match l.ph with Instant -> "i" | Complete -> "X")
  in
  (head, Array.map (fun k -> "\"" ^ Export.json_escape k ^ "\":\"") l.keys)

let add_event b t base heads c i =
  let l = t.labels.Vec.a.(c.c_label.(i)) in
  let head, keys = heads.(c.c_label.(i)) in
  Buffer.add_string b head;
  add_ts b c.c_at.(i);
  (match l.ph with
  | Complete ->
      Buffer.add_string b ",\"dur\":";
      add_ts b c.c_dur.(i)
  | Instant -> Buffer.add_string b ",\"s\":\"t\"");
  let tid = c.c_track.(i) in
  Buffer.add_string b ",\"pid\":";
  Buffer.add_string b (string_of_int (base + t.tid_pid.Vec.a.(tid - 1)));
  Buffer.add_string b ",\"tid\":";
  Buffer.add_string b (string_of_int tid);
  Buffer.add_string b ",\"args\":{";
  Array.iteri
    (fun k key ->
      if k > 0 then Buffer.add_char b ',';
      Buffer.add_string b key;
      let v = c.c_args.((i * max_args) + k) in
      Buffer.add_string b
        (if l.strs.(k) then Export.json_escape t.str_of.Vec.a.(v)
         else string_of_int v);
      Buffer.add_char b '"')
    keys;
  Buffer.add_string b "}}"

let to_chrome_json ts =
  List.iter (require_recording "to_chrome_json") ts;
  let b = Buffer.create 65536 in
  let first = ref true in
  let sep () = if !first then first := false else Buffer.add_string b ",\n" in
  Buffer.add_string b "[\n";
  List.iteri
    (fun mi t ->
      let base = (mi + 1) * 1000 in
      let machine_prefix = if List.length ts > 1 then t.tname ^ "/" else "" in
      (* Track metadata. *)
      for p = 1 to t.pid_names.Vec.n do
        sep ();
        Buffer.add_string b
          (Printf.sprintf
             "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"%s\"}}"
             (base + p)
             (Export.json_escape (machine_prefix ^ t.pid_names.Vec.a.(p - 1))))
      done;
      for tid = 1 to t.tid_pid.Vec.n do
        sep ();
        Buffer.add_string b
          (Printf.sprintf
             "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
             (base + t.tid_pid.Vec.a.(tid - 1))
             tid
             (Export.json_escape t.tid_names.Vec.a.(tid - 1)))
      done;
      let heads =
        Array.init t.labels.Vec.n (fun i -> render_label t.labels.Vec.a.(i))
      in
      for e = 0 to t.n - 1 do
        sep ();
        add_event b t base heads
          t.chunks.Vec.a.(e / chunk_size)
          (e mod chunk_size)
      done)
    ts;
  Buffer.add_string b "\n]\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Hypercall profile                                                   *)
(* ------------------------------------------------------------------ *)

let hypercall_profile ts =
  List.concat_map
    (fun t ->
      Hashtbl.fold
        (fun _ o acc ->
          if o.o_hypercall && o.o_count > 0 then
            (t.tname, o.o_domain, o.o_op, o.o_count, o.o_total) :: acc
          else acc)
        t.ops []
      |> List.sort compare)
    ts

(* ------------------------------------------------------------------ *)
(* Latency breakdown                                                   *)
(* ------------------------------------------------------------------ *)

let breakdown ts =
  List.iter (require_recording "breakdown") ts;
  (* kind -> stage -> durations, preserving first-seen order. *)
  let kinds : (string * (string * float list ref) list ref) list ref = ref [] in
  let stage_cell kind stage =
    let stages =
      match List.assoc_opt kind !kinds with
      | Some r -> r
      | None ->
          let r = ref [] in
          kinds := !kinds @ [ (kind, r) ];
          r
    in
    match List.assoc_opt stage !stages with
    | Some cell -> cell
    | None ->
        let cell = ref [] in
        stages := !stages @ [ (stage, cell) ];
        cell
  in
  List.iter
    (fun t ->
      List.iter
        (fun sp ->
          List.iter
            (fun (stage, start, stop) ->
              let cell = stage_cell sp.span_kind stage in
              cell := float_of_int (stop - start) :: !cell)
            sp.span_stages;
          let cell = stage_cell sp.span_kind "TOTAL" in
          cell := float_of_int (sp.span_end_at - sp.span_begin_at) :: !cell)
        (spans t))
    ts;
  List.map
    (fun (kind, stages) ->
      (kind, List.map (fun (stage, cell) -> (stage, List.rev !cell)) !stages))
    !kinds
