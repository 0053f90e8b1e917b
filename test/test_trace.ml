(* kite_trace: span accounting invariants, Chrome JSON export, counting
   against recording, and the zero-events-when-disabled guarantee. *)

open Kite_sim
open Kite
module Trace = Kite_trace.Trace

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* A minimal JSON validator (no external dependency): parses the full
   grammar we emit and returns the number of array elements.            *)
(* ------------------------------------------------------------------ *)

exception Bad_json of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t' || s.[!pos] = '\r')
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %c" c)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr () |> ignore
    | Some '"' -> str ()
    | Some ('-' | '0' .. '9') -> number ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | _ -> fail "value"
  and literal lit =
    if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit
    then pos := !pos + String.length lit
    else fail ("literal " ^ lit)
  and number () =
    let start = !pos in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    if !pos = start then fail "number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some _ -> ()
    | None -> fail "number"
  and str () =
    expect '"';
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            (match peek () with
            | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> incr pos
            | Some 'u' -> pos := !pos + 5
            | _ -> fail "escape");
            go ()
        | c when Char.code c < 0x20 -> fail "control char in string"
        | _ ->
            incr pos;
            go ()
    in
    go ()
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then incr pos
    else
      let rec members () =
        skip_ws ();
        str ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            members ()
        | Some '}' -> incr pos
        | _ -> fail "object"
      in
      members ()
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      incr pos;
      0
    end
    else
      let rec elems count =
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            skip_ws ();
            elems (count + 1)
        | Some ']' ->
            incr pos;
            count + 1
        | _ -> fail "array"
      in
      elems 0
  in
  skip_ws ();
  let count = arr () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  count

(* Every completed span must be well-formed: stages in traversal order,
   consecutive, inside the span, and their durations summing to at most
   (here: exactly) the span total. *)
let assert_spans_well_formed tr =
  List.iter
    (fun sp ->
      check_bool "span ends after it begins" true
        (Trace.(sp.span_end_at >= sp.span_begin_at));
      check_bool "has stages" true (sp.Trace.span_stages <> []);
      let total =
        List.fold_left
          (fun acc (_, start, stop) ->
            check_bool "stage interval ordered" true (stop >= start);
            check_bool "stage inside span" true
              (start >= sp.Trace.span_begin_at && stop <= sp.Trace.span_end_at);
            acc + (stop - start))
          0 sp.Trace.span_stages
      in
      check_bool "stage durations sum <= span total" true
        (total <= sp.Trace.span_end_at - sp.Trace.span_begin_at);
      (* Stages are consecutive: each starts where the previous stopped. *)
      ignore
        (List.fold_left
           (fun prev (_, start, stop) ->
             (match prev with
             | Some p -> check_int "stages consecutive" p start
             | None -> ());
             Some stop)
           None sp.Trace.span_stages))
    (Trace.spans tr)

(* ------------------------------------------------------------------ *)
(* Span API unit tests                                                 *)
(* ------------------------------------------------------------------ *)

let test_span_accounting () =
  let tr = Trace.create ~name:"unit" () in
  Trace.span_begin tr ~at:100 ~kind:"k" ~key:"a" ~id:1 ~stage:"s1";
  Trace.span_hop tr ~at:250 ~kind:"k" ~key:"a" ~id:1 ~stage:"s2" ~args:[];
  Trace.span_hop tr ~at:400 ~kind:"k" ~key:"a" ~id:1 ~stage:"s3" ~args:[];
  check_int "open until ended" 1 (Trace.open_spans tr);
  Trace.span_end tr ~at:1000 ~kind:"k" ~key:"a" ~id:1;
  check_int "closed" 0 (Trace.open_spans tr);
  (match Trace.spans tr with
  | [ sp ] ->
      check_int "begin" 100 sp.Trace.span_begin_at;
      check_int "end" 1000 sp.Trace.span_end_at;
      Alcotest.(check (list (triple string int int)))
        "stages partition the lifetime"
        [ ("s1", 100, 250); ("s2", 250, 400); ("s3", 400, 1000) ]
        sp.Trace.span_stages
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans));
  assert_spans_well_formed tr;
  (* Hops and ends for unknown spans are ignored, not fatal — but they
     are counted so the checker can surface instrumentation bugs. *)
  check_int "no orphan hops yet" 0 (Trace.orphan_hops tr);
  check_int "no orphan ends yet" 0 (Trace.orphan_ends tr);
  Trace.span_hop tr ~at:1 ~kind:"k" ~key:"zzz" ~id:9 ~stage:"s" ~args:[];
  Trace.span_end tr ~at:2 ~kind:"k" ~key:"zzz" ~id:9;
  check_int "still one span" 1 (List.length (Trace.spans tr));
  check_int "orphan hop counted" 1 (Trace.orphan_hops tr);
  check_int "orphan end counted" 1 (Trace.orphan_ends tr)

let test_buffer_limit () =
  let tr = Trace.create ~limit:10 ~name:"tiny" () in
  let op = Trace.op tr ~domain:"d" ~op:"hypercall.x" in
  for i = 1 to 25 do
    Trace.charge tr ~at:i op ~cost:7
  done;
  check_int "capped" 10 (Trace.events tr);
  check_int "overflow counted" 15 (Trace.dropped tr);
  (* The hypercall profile aggregates exactly regardless of the buffer. *)
  match Trace.hypercall_profile [ tr ] with
  | [ (_, "d", "hypercall.x", 25, 175) ] -> ()
  | _ -> Alcotest.fail "profile should be exact despite drops"

(* ------------------------------------------------------------------ *)
(* Export shapes                                                       *)
(* ------------------------------------------------------------------ *)

(* One event of every hook shape, and the exact Chrome JSON it exports,
   pid and tid numbering included (the text the tracer wrote when it
   still stored each event as a record of strings). *)
let shapes_json =
  {|[
{"ph":"M","name":"process_name","pid":1001,"tid":0,"args":{"name":"Dom0"}},
{"ph":"M","name":"process_name","pid":1002,"tid":0,"args":{"name":"sim"}},
{"ph":"M","name":"process_name","pid":1003,"tid":0,"args":{"name":"domu"}},
{"ph":"M","name":"process_name","pid":1004,"tid":0,"args":{"name":"rings"}},
{"ph":"M","name":"process_name","pid":1005,"tid":0,"args":{"name":"spans"}},
{"ph":"M","name":"thread_name","pid":1001,"tid":1,"args":{"name":"netback"}},
{"ph":"M","name":"thread_name","pid":1002,"tid":2,"args":{"name":"probe"}},
{"ph":"M","name":"thread_name","pid":1003,"tid":3,"args":{"name":"netback"}},
{"ph":"M","name":"thread_name","pid":1003,"tid":4,"args":{"name":"(interrupt)"}},
{"ph":"M","name":"thread_name","pid":1004,"tid":5,"args":{"name":"vif1.0-tx"}},
{"ph":"M","name":"thread_name","pid":1005,"tid":6,"args":{"name":"net.tx:vif1.0"}},
{"name":"spawn","cat":"sched","ph":"i","ts":0.000,"s":"t","pid":1001,"tid":1,"args":{"daemon":"1"}},
{"name":"spawn","cat":"sched","ph":"i","ts":0.001,"s":"t","pid":1002,"tid":2,"args":{}},
{"name":"hypercall.grant_copy","cat":"hv","ph":"X","ts":0.002,"dur":2.500,"pid":1001,"tid":1,"args":{}},
{"name":"xenstore.read","cat":"hv","ph":"X","ts":0.003,"dur":0.050,"pid":1003,"tid":3,"args":{}},
{"name":"cpu_work","cat":"cpu","ph":"X","ts":0.004,"dur":1.500,"pid":1001,"tid":1,"args":{}},
{"name":"evtchn.send","cat":"evtchn","ph":"i","ts":0.005,"s":"t","pid":1001,"tid":1,"args":{"port":"7"}},
{"name":"netback.wake","cat":"driver","ph":"i","ts":0.006,"s":"t","pid":1001,"tid":1,"args":{"vif":"vif1.0","tier":"cold","idle_ns":"123456"}},
{"name":"sleep","cat":"sched","ph":"i","ts":0.007,"s":"t","pid":1001,"tid":1,"args":{"ns":"1000"}},
{"name":"evtchn.deliver","cat":"evtchn","ph":"i","ts":0.008,"s":"t","pid":1003,"tid":4,"args":{"port":"7"}},
{"name":"cpu_work","cat":"cpu","ph":"X","ts":0.009,"dur":0.100,"pid":1003,"tid":4,"args":{}},
{"name":"yield","cat":"sched","ph":"i","ts":0.010,"s":"t","pid":1002,"tid":2,"args":{}},
{"name":"wait","cat":"sched","ph":"i","ts":0.011,"s":"t","pid":1002,"tid":2,"args":{}},
{"name":"wait","cat":"sched","ph":"i","ts":0.012,"s":"t","pid":1002,"tid":2,"args":{"on":"slot \"free\""}},
{"name":"publish.req","cat":"ring","ph":"i","ts":0.013,"s":"t","pid":1004,"tid":5,"args":{"batch":"2","notify":"1"}},
{"name":"publish.rsp","cat":"ring","ph":"i","ts":0.014,"s":"t","pid":1004,"tid":5,"args":{"batch":"1","notify":"0"}},
{"name":"consume.req","cat":"ring","ph":"i","ts":0.015,"s":"t","pid":1004,"tid":5,"args":{"batch":"2"}},
{"name":"backend","cat":"net.tx","ph":"X","ts":0.031,"dur":0.009,"pid":1005,"tid":6,"args":{"id":"4"}},
{"name":"ring","cat":"net.tx","ph":"X","ts":0.025,"dur":0.006,"pid":1005,"tid":6,"args":{"id":"4","len":"1514","q":"0"}},
{"name":"frontend","cat":"net.tx","ph":"X","ts":0.020,"dur":0.005,"pid":1005,"tid":6,"args":{"id":"4"}},
{"name":"exit","cat":"sched","ph":"i","ts":0.050,"s":"t","pid":1002,"tid":2,"args":{}}
]
|}

let test_export_shapes () =
  let tr = Trace.create ~name:"shapes" () in
  let netback = Trace.proc ~name:"Dom0/netback" in
  let probe = Trace.proc ~name:"probe" in
  Trace.proc_spawned tr ~at:0 netback ~daemon:true;
  Trace.proc_spawned tr ~at:1 probe ~daemon:false;
  Trace.proc_enter tr netback;
  let copy = Trace.op tr ~domain:"Dom0" ~op:"hypercall.grant_copy" in
  Trace.charge tr ~at:2 copy ~cost:2500;
  let read = Trace.op tr ~domain:"domu" ~op:"xenstore.read" in
  Trace.charge tr ~at:3 read ~cost:50;
  Trace.cpu_work tr ~at:4 ~domain:"Dom0" ~cost:1500;
  Trace.evtchn_send tr ~at:5 ~domain:"Dom0" ~port:7;
  Trace.driver tr ~at:6 ~domain:"Dom0" ~name:"netback.wake"
    ~args:
      [ Str ("vif", "vif1.0"); Str ("tier", "cold"); Int ("idle_ns", 123456) ];
  Trace.proc_blocked tr ~at:7 netback ~kind:(`Sleep 1000);
  Trace.proc_leave tr;
  Trace.evtchn_deliver tr ~at:8 ~domain:"domu" ~port:7;
  Trace.cpu_work tr ~at:9 ~domain:"domu" ~cost:100;
  Trace.proc_blocked tr ~at:10 probe ~kind:`Yield;
  Trace.proc_blocked tr ~at:11 probe ~kind:(`Suspend None);
  Trace.proc_blocked tr ~at:12 probe ~kind:(`Suspend (Some "slot \"free\""));
  let now = ref 13 in
  let r = Trace.ring tr ~name:"vif1.0-tx" ~now:(fun () -> !now) in
  Trace.ring_publish r `Req ~batch:2 ~notify:true;
  now := 14;
  Trace.ring_publish r `Rsp ~batch:1 ~notify:false;
  Trace.ring_take r `Req ~got:true;
  Trace.ring_take r `Req ~got:true;
  now := 15;
  Trace.ring_take r `Req ~got:false;
  let kind = "net.tx" and key = "vif1.0" in
  Trace.span_begin tr ~at:20 ~kind ~key ~id:4 ~stage:"frontend";
  Trace.span_hop tr ~at:25 ~kind ~key ~id:4 ~stage:"ring"
    ~args:[ Int ("len", 1514); Int ("q", 0) ];
  Trace.span_hop tr ~at:31 ~kind ~key ~id:4 ~stage:"backend" ~args:[];
  Trace.span_end tr ~at:40 ~kind ~key ~id:4;
  Trace.proc_exited tr ~at:50 probe;
  Alcotest.(check string)
    "chrome json" shapes_json
    (Trace.to_chrome_json [ tr ]);
  check_int "events" 20 (Trace.events tr);
  match Trace.hypercall_profile [ tr ] with
  | [ ("shapes", "Dom0", "hypercall.grant_copy", 1, 2500) ] -> ()
  | _ -> Alcotest.fail "one hypercall row"

(* A limit that spans three 1,024-event chunks and ends inside the
   third: exactly [limit] events are kept and exported, the rest are
   counted, and the hypercall profile and spans stay exact. *)
let test_limit_across_chunks () =
  let limit = 2500 in
  let tr = Trace.create ~limit ~name:"chunks" () in
  let op = Trace.op tr ~domain:"d" ~op:"hypercall.x" in
  let n = 1000 in
  for id = 1 to n do
    let at = id * 10 in
    Trace.charge tr ~at op ~cost:3;
    Trace.span_begin tr ~at ~kind:"k" ~key:"dev" ~id ~stage:"a";
    Trace.span_hop tr ~at:(at + 1) ~kind:"k" ~key:"dev" ~id ~stage:"b"
      ~args:[ Int ("n", id) ];
    Trace.span_end tr ~at:(at + 2) ~kind:"k" ~key:"dev" ~id
  done;
  check_int "events capped" limit (Trace.events tr);
  check_int "rest counted" ((3 * n) - limit) (Trace.dropped tr);
  let json = Trace.to_chrome_json [ tr ] in
  let objects = List.length (String.split_on_char '\n' json) - 3 in
  (* Metadata rows: pids "d" and "spans", tids "(interrupt)" and "k:dev". *)
  check_int "exported events" (limit + 4) objects;
  check_int "parses" (limit + 4) (parse_json json);
  (match Trace.hypercall_profile [ tr ] with
  | [ (_, "d", "hypercall.x", c, total) ] ->
      check_int "profile count" n c;
      check_int "profile total" (3 * n) total
  | _ -> Alcotest.fail "profile should be exact despite drops");
  check_int "span count" n (Trace.span_count tr);
  let spans = Trace.spans tr in
  check_int "span list" n (List.length spans);
  List.iteri
    (fun i sp ->
      check_int "span id" (i + 1) sp.Trace.span_id;
      match sp.Trace.span_stages with
      | [ ("a", s0, s1); ("b", s1', s2) ] ->
          check_bool "stages" true
            (s0 = (i + 1) * 10 && s1 = s1' && s2 = s0 + 2)
      | _ -> Alcotest.fail "two stages")
    spans

(* ------------------------------------------------------------------ *)
(* Counting against recording                                          *)
(* ------------------------------------------------------------------ *)

(* A sink's members get the default limit, so the overflow below fills
   it. *)
let limit = 1_000_000

(* One run of hooks of every shape: scheduler, charges, event channels,
   rings, driver events, nested spans of two kinds (one left open), an
   orphan hop and end, then events past the limit, with a span whose
   stages straddle it. *)
let drive tr =
  let netback = Trace.proc ~name:"Dom0/netback" in
  let probe = Trace.proc ~name:"probe" in
  Trace.proc_spawned tr ~at:0 netback ~daemon:true;
  Trace.proc_spawned tr ~at:1 probe ~daemon:false;
  Trace.proc_enter tr netback;
  let copy = Trace.op tr ~domain:"Dom0" ~op:"hypercall.grant_copy" in
  let read = Trace.op tr ~domain:"domu" ~op:"xenstore.read" in
  Trace.charge tr ~at:2 copy ~cost:2500;
  Trace.charge tr ~at:3 read ~cost:50;
  Trace.cpu_work tr ~at:4 ~domain:"Dom0" ~cost:1500;
  Trace.evtchn_send tr ~at:5 ~domain:"Dom0" ~port:7;
  Trace.driver tr ~at:6 ~domain:"Dom0" ~name:"netback.wake"
    ~args:[ Str ("vif", "vif1.0"); Str ("tier", "cold"); Int ("idle_ns", 9) ];
  Trace.proc_blocked tr ~at:7 netback ~kind:(`Sleep 1000);
  Trace.proc_leave tr;
  Trace.evtchn_deliver tr ~at:8 ~domain:"domu" ~port:7;
  Trace.proc_blocked tr ~at:9 probe ~kind:`Yield;
  Trace.proc_blocked tr ~at:10 probe ~kind:(`Suspend (Some "slot"));
  Trace.proc_blocked tr ~at:11 probe ~kind:(`Suspend None);
  let now = ref 12 in
  let r = Trace.ring tr ~name:"vif1.0-tx" ~now:(fun () -> !now) in
  Trace.ring_publish r `Req ~batch:2 ~notify:true;
  Trace.ring_publish r `Rsp ~batch:0 ~notify:false;
  Trace.ring_take r `Req ~got:true;
  Trace.ring_take r `Req ~got:true;
  now := 13;
  Trace.ring_take r `Req ~got:false;
  Trace.ring_take r `Rsp ~got:false;
  let net = "net.tx" and blk = "blk" in
  Trace.span_begin tr ~at:20 ~kind:net ~key:"vif1.0" ~id:1 ~stage:"frontend";
  Trace.span_begin tr ~at:21 ~kind:net ~key:"vif1.0" ~id:2 ~stage:"frontend";
  Trace.span_begin tr ~at:22 ~kind:blk ~key:"vbd2.0" ~id:1 ~stage:"frontend";
  Trace.span_hop tr ~at:23 ~kind:net ~key:"vif1.0" ~id:2 ~stage:"ring"
    ~args:[ Int ("len", 1514); Int ("q", 0) ];
  Trace.span_hop tr ~at:24 ~kind:net ~key:"vif1.0" ~id:1 ~stage:"ring"
    ~args:[];
  Trace.span_hop tr ~at:25 ~kind:blk ~key:"vbd2.0" ~id:1 ~stage:"ring"
    ~args:[ Int ("segs", 11); Str ("op", "write"); Int ("q", 1) ];
  Trace.span_end tr ~at:30 ~kind:net ~key:"vif1.0" ~id:2;
  Trace.span_hop tr ~at:31 ~kind:net ~key:"vif1.0" ~id:1 ~stage:"backend"
    ~args:[];
  Trace.span_end tr ~at:35 ~kind:net ~key:"vif1.0" ~id:1;
  Trace.span_hop tr ~at:36 ~kind:net ~key:"vif1.0" ~id:2 ~stage:"late"
    ~args:[];
  Trace.span_hop tr ~at:37 ~kind:net ~key:"vif9.0" ~id:1 ~stage:"ring"
    ~args:[];
  Trace.span_end tr ~at:38 ~kind:blk ~key:"vbd2.0" ~id:7;
  Trace.span_begin tr ~at:40 ~kind:net ~key:"vif1.0" ~id:3 ~stage:"frontend";
  List.iteri
    (fun i stage ->
      Trace.span_hop tr ~at:(41 + i) ~kind:net ~key:"vif1.0" ~id:3 ~stage
        ~args:[])
    [ "queue"; "ring"; "backend" ];
  (* Fill to two events short of the limit: the span's four stages
     straddle it. *)
  for i = Trace.events tr + 1 to limit - 2 do
    Trace.charge tr ~at:(50 + i) copy ~cost:1
  done;
  Trace.span_end tr ~at:(limit + 100) ~kind:net ~key:"vif1.0" ~id:3;
  Trace.proc_exited tr ~at:(limit + 101) probe;
  Trace.evtchn_send tr ~at:(limit + 102) ~domain:"Dom0" ~port:7

let summary tr =
  Trace.
    [
      events tr; dropped tr; span_count tr; open_spans tr; orphan_hops tr;
      orphan_ends tr;
    ]

let test_counting_equals_recording () =
  let traced record =
    let tr = Trace.create_in (Trace.sink ~record ()) ~name:"m" in
    let seen = ref [] in
    Trace.add_span_observer tr (fun sp -> seen := sp :: !seen);
    drive tr;
    (tr, List.rev !seen)
  in
  let rec_tr, rec_seen = traced true in
  let cnt_tr, cnt_seen = traced false in
  Alcotest.(check (list int))
    "events, dropped, spans, open spans, orphan hops and ends"
    [ limit; 4; 3; 1; 2; 1 ] (summary rec_tr);
  Alcotest.(check (list int)) "counting = recording" (summary rec_tr)
    (summary cnt_tr);
  check_bool "same hypercall profile" true
    (Trace.hypercall_profile [ rec_tr ] = Trace.hypercall_profile [ cnt_tr ]);
  check_int "observer saw every span" 3 (List.length cnt_seen);
  check_bool "observers saw the same spans in the same order" true
    (rec_seen = cnt_seen);
  check_bool "the recording tracer kept them" true
    (Trace.spans rec_tr = rec_seen);
  let refuses what f =
    match f () with
    | _ -> Alcotest.failf "%s on a counting tracer did not raise" what
    | exception Invalid_argument _ -> ()
  in
  refuses "to_chrome_json" (fun () -> ignore (Trace.to_chrome_json [ cnt_tr ]));
  refuses "spans" (fun () -> ignore (Trace.spans cnt_tr));
  refuses "breakdown" (fun () -> ignore (Trace.breakdown [ cnt_tr ]))

(* Arity is checked where the hook is called, in both modes: a hop with
   four args raises even when its span is not open (a recording tracer
   used to find out only when the span ended), and so does a driver
   event with five. *)
let test_arity_at_call () =
  List.iter
    (fun (mode, tr) ->
      let raises what f =
        match f () with
        | () -> Alcotest.failf "%s: %s did not raise" mode what
        | exception Invalid_argument _ -> ()
      in
      let i k = Trace.Int (k, 1) in
      let hop id args () =
        Trace.span_hop tr ~at:2 ~kind:"k" ~key:"x" ~id ~stage:"s" ~args
      in
      raises "a four-arg hop, no span open" (hop 1 [ i "a"; i "b"; i "c"; i "d" ]);
      Trace.span_begin tr ~at:1 ~kind:"k" ~key:"x" ~id:1 ~stage:"s0";
      raises "a four-arg hop" (hop 1 [ i "a"; i "b"; i "c"; i "d" ]);
      raises "a five-arg driver event" (fun () ->
          Trace.driver tr ~at:3 ~domain:"d" ~name:"e"
            ~args:[ i "a"; i "b"; i "c"; i "d"; i "e" ]);
      check_int (mode ^ ": refused calls left no trace") 0
        (Trace.events tr + Trace.orphan_hops tr);
      hop 1 [ i "a"; i "b"; i "c" ] ();
      Trace.driver tr ~at:3 ~domain:"d" ~name:"e"
        ~args:[ i "a"; i "b"; i "c"; i "d" ];
      Trace.span_end tr ~at:4 ~kind:"k" ~key:"x" ~id:1;
      check_int (mode ^ ": a driver event and two stages") 3 (Trace.events tr))
    [
      ("recording", Trace.create ());
      ("counting", Trace.create_in (Trace.sink ()) ~name:"c");
    ]

(* A counting tracer stores nothing: after a warm-up, scheduler, charge,
   ring and event-channel events allocate no minor words (the
   measurement itself may box a float or two). *)
let test_counting_alloc_budget () =
  let tr = Trace.create_in (Trace.sink ()) ~name:"budget" in
  let p = Trace.proc ~name:"Dom0/netback" in
  let copy = Trace.op tr ~domain:"Dom0" ~op:"hypercall.grant_copy" in
  let r = Trace.ring tr ~name:"vif1.0-tx" ~now:(fun () -> 0) in
  (* Ten events. *)
  let round at =
    Trace.proc_spawned tr ~at p ~daemon:false;
    Trace.proc_enter tr p;
    Trace.charge tr ~at copy ~cost:3;
    Trace.cpu_work tr ~at ~domain:"Dom0" ~cost:5;
    Trace.evtchn_send tr ~at ~domain:"Dom0" ~port:7;
    Trace.evtchn_deliver tr ~at ~domain:"domu" ~port:7;
    Trace.ring_publish r `Req ~batch:1 ~notify:true;
    Trace.ring_take r `Req ~got:true;
    Trace.ring_take r `Req ~got:false;
    Trace.proc_blocked tr ~at p ~kind:(`Sleep 1000);
    Trace.proc_blocked tr ~at p ~kind:(`Suspend (Some "slot"));
    Trace.proc_leave tr;
    Trace.proc_exited tr ~at p
  in
  round 0;
  let n = 100_000 in
  let e0 = Trace.events tr in
  let before = Gc.minor_words () in
  for at = 1 to n / 10 do
    round at
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  check_int "events counted" n (Trace.events tr - e0);
  check_bool
    (Printf.sprintf "%.4f minor words per counted event < 0.001" words)
    true (words < 0.001)

(* ------------------------------------------------------------------ *)
(* Scenario integration                                                *)
(* ------------------------------------------------------------------ *)

(* The scenario tests read stored spans and the Chrome export, so their
   sink records. *)
let with_sink f =
  let sink = Trace.sink ~record:true () in
  Kite.Obs.run { Kite.Obs.none with trace = Some sink } f;
  sink

(* The two scenario tests below drive their machine through a fixed 5 s
   window and never to a result, so no run tears it down: each ends with
   [teardown_all], after its assertions read the trace. *)
let test_network_scenario_traced () =
  Fun.protect ~finally:Scenario.teardown_all @@ fun () ->
  let sink =
    with_sink (fun () ->
        let s = Scenario.network ~flavor:Scenario.Kite () in
        Scenario.when_net_ready s (fun () ->
            for seq = 1 to 3 do
              ignore
                (Kite_net.Stack.ping s.Scenario.client_stack
                   ~dst:s.Scenario.guest_ip ~seq ())
            done);
        Kite_xen.Hypervisor.run_for s.Scenario.hv (Time.sec 5))
  in
  match Trace.traces sink with
  | [ tr ] ->
      check_bool "events recorded" true (Trace.events tr > 0);
      check_int "nothing dropped" 0 (Trace.dropped tr);
      let spans = Trace.spans tr in
      check_bool "net.tx spans completed" true
        (List.exists (fun sp -> sp.Trace.span_kind = "net.tx") spans);
      assert_spans_well_formed tr;
      (* Every net.tx span visits frontend -> queue -> ring -> backend
         -> deliver. *)
      List.iter
        (fun sp ->
          if sp.Trace.span_kind = "net.tx" then
            Alcotest.(check (list string))
              "net.tx stage sequence"
              [ "frontend"; "queue"; "ring"; "backend"; "deliver" ]
              (List.map (fun (st, _, _) -> st) sp.Trace.span_stages))
        spans;
      (* The Chrome export parses and is non-empty. *)
      let json = Trace.to_chrome_json [ tr ] in
      check_bool "chrome json non-empty" true (parse_json json > 0);
      (* The driver domain issued traced hypercalls. *)
      check_bool "hypercall profile non-empty" true
        (Trace.hypercall_profile [ tr ] <> [])
  | ts -> Alcotest.failf "expected 1 traced machine, got %d" (List.length ts)

let test_storage_scenario_traced () =
  Fun.protect ~finally:Scenario.teardown_all @@ fun () ->
  let sink =
    with_sink (fun () ->
        let s = Scenario.storage ~flavor:Scenario.Kite () in
        let dev = Scenario.blockdev s in
        Scenario.when_blk_ready s (fun () ->
            let data = Bytes.make 4096 't' in
            dev.Kite_vfs.Blockdev.write ~sector:0 data;
            ignore (dev.Kite_vfs.Blockdev.read ~sector:0 ~count:8);
            dev.Kite_vfs.Blockdev.flush ());
        Kite_xen.Hypervisor.run_for s.Scenario.bhv (Time.sec 5))
  in
  match Trace.traces sink with
  | [ tr ] ->
      let spans = Trace.spans tr in
      check_bool "blk spans completed" true
        (List.exists (fun sp -> sp.Trace.span_kind = "blk") spans);
      assert_spans_well_formed tr;
      List.iter
        (fun sp ->
          if sp.Trace.span_kind = "blk" then
            Alcotest.(check (list string))
              "blk stage sequence"
              [ "frontend"; "queue"; "ring"; "backend"; "map"; "device";
                "complete" ]
              (List.map (fun (st, _, _) -> st) sp.Trace.span_stages))
        spans;
      let json = Trace.to_chrome_json [ tr ] in
      check_bool "chrome json non-empty" true (parse_json json > 0)
  | ts -> Alcotest.failf "expected 1 traced machine, got %d" (List.length ts)

(* Spans crossing a driver-domain crash/restart.  Requests journaled at
   the crash are replayed into the rebuilt backend without re-issuing
   span_begin, so a replayed request's single span legitimately begins
   before the outage and ends after it — the partition invariants must
   hold across that straddle, and no span may be left open. *)
let test_spans_cross_restart () =
  let writes = 64 in
  let downtime = ref None in
  let replayed = ref 0 in
  let sink =
    with_sink (fun () ->
        let s = Scenario.storage ~flavor:Scenario.Kite () in
        Scenario.run s.Scenario.bhv ~what:"spans across a restart"
          (fun finish ->
            Scenario.when_blk_ready s (fun () ->
                Scenario.crash_and_restart_blk s ~flavor:Scenario.Kite
                  ~at:(Time.ms 2)
                  ~on_restored:(fun ~downtime:d -> downtime := Some d)
                  ();
                let front = s.Scenario.blkfront in
                for k = 0 to writes - 1 do
                  let data = Bytes.make Kite_drivers.Blkfront.sector_size 'r' in
                  Kite_drivers.Blkfront.write front ~sector:k data
                done;
                (* The restore callback polls the frontend every 1 ms, so
                   it may report after the last write completed. *)
                while !downtime = None do
                  Process.sleep (Time.ms 1)
                done;
                finish ()));
        replayed := Kite_drivers.Blkfront.replayed s.Scenario.blkfront)
  in
  let dt = match !downtime with Some d -> d | None -> Alcotest.fail "no restore" in
  check_bool "crash landed on a non-empty journal" true (!replayed > 0);
  match Trace.traces sink with
  | [ tr ] ->
      (* Every request completed exactly once, nothing left open. *)
      check_int "no span leaks across the restart" 0 (Trace.open_spans tr);
      let spans =
        List.filter (fun sp -> sp.Trace.span_kind = "blk") (Trace.spans tr)
      in
      check_int "one completed span per write" writes (List.length spans);
      assert_spans_well_formed tr;
      (* The replayed request's span straddles the whole outage... *)
      let straddle =
        match
          List.find_opt
            (fun sp -> sp.Trace.span_end_at - sp.Trace.span_begin_at >= dt)
            spans
        with
        | Some sp -> sp
        | None -> Alcotest.fail "no span straddles the outage"
      in
      (* ...and bounds the crash instant: it ends one replay after the
         restore, so [span_end_at - dt] sits just past the crash.  Spans
         partition cleanly on both sides of that boundary. *)
      let boundary = straddle.Trace.span_end_at - dt in
      check_bool "spans completed before the crash" true
        (List.exists (fun sp -> sp.Trace.span_end_at < boundary) spans);
      check_bool "spans began after the restart" true
        (List.exists (fun sp -> sp.Trace.span_begin_at > boundary) spans)
  | ts -> Alcotest.failf "expected 1 traced machine, got %d" (List.length ts)

let test_disabled_emits_nothing () =
  (* No default sink: the scenario must run completely untraced. *)
  check_bool "no ambient sink" true (Trace.default () = None);
  let s = Scenario.network ~flavor:Scenario.Kite () in
  let got =
    Testbed.run s.Scenario.hv ~what:"untraced ping" ~within:(Time.sec 5)
      (fun finish ->
        Scenario.when_net_ready s (fun () ->
            finish
              (Kite_net.Stack.ping s.Scenario.client_stack
                 ~dst:s.Scenario.guest_ip ~seq:1 ())))
  in
  check_bool "traffic flowed" true (got <> None);
  check_bool "no tracer attached" true (s.Scenario.ctx.Kite_drivers.Xen_ctx.trace = None);
  check_bool "hypervisor tracer off" true
    (Kite_xen.Hypervisor.trace s.Scenario.hv = None)

let test_breakdown_totals_last () =
  let tr = Trace.create () in
  Trace.span_begin tr ~at:0 ~kind:"k" ~key:"x" ~id:1 ~stage:"a";
  Trace.span_hop tr ~at:10 ~kind:"k" ~key:"x" ~id:1 ~stage:"b" ~args:[];
  Trace.span_end tr ~at:30 ~kind:"k" ~key:"x" ~id:1;
  match Trace.breakdown [ tr ] with
  | [ ("k", stages) ] ->
      Alcotest.(check (list string))
        "stage order with TOTAL last" [ "a"; "b"; "TOTAL" ]
        (List.map fst stages);
      Alcotest.(check (list (list (float 1e-9))))
        "durations" [ [ 10. ]; [ 20. ]; [ 30. ] ] (List.map snd stages)
  | _ -> Alcotest.fail "expected one kind"

let test_breakdown_tables_render () =
  let tr = Trace.create ~name:"unit" () in
  Trace.span_begin tr ~at:0 ~kind:"net.tx" ~key:"p" ~id:1 ~stage:"frontend";
  Trace.span_hop tr ~at:1000 ~kind:"net.tx" ~key:"p" ~id:1 ~stage:"ring"
    ~args:[];
  Trace.span_end tr ~at:3000 ~kind:"net.tx" ~key:"p" ~id:1;
  match Trace_report.breakdown_tables [ tr ] with
  | [ table ] ->
      let text = Kite_stats.Table.render table in
      let contains needle =
        let nh = String.length text and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub text i nn = needle || go (i + 1))
        in
        go 0
      in
      List.iter
        (fun needle -> check_bool needle true (contains needle))
        [ "net.tx"; "frontend"; "ring"; "TOTAL" ]
  | ts -> Alcotest.failf "expected one breakdown table, got %d" (List.length ts)

let suite =
  [
    ("span accounting", `Quick, test_span_accounting);
    ("buffer limit + exact profile", `Quick, test_buffer_limit);
    ("breakdown totals last", `Quick, test_breakdown_totals_last);
    ("breakdown tables render", `Quick, test_breakdown_tables_render);
    ("network scenario traced", `Quick, test_network_scenario_traced);
    ("storage scenario traced", `Quick, test_storage_scenario_traced);
    ("spans cross crash/restart", `Quick, test_spans_cross_restart);
    ("disabled tracer emits nothing", `Quick, test_disabled_emits_nothing);
    ("export shapes", `Quick, test_export_shapes);
    ("limit across chunks", `Quick, test_limit_across_chunks);
    ("counting equals recording", `Quick, test_counting_equals_recording);
    ("arity checked at the call", `Quick, test_arity_at_call);
    ("counting alloc budget", `Quick, test_counting_alloc_budget);
  ]
