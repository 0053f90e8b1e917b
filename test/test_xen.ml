open Kite_sim
open Kite_xen

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str_opt = Alcotest.(check (option string))

(* ------------------------------------------------------------------ *)
(* Xenstore                                                            *)
(* ------------------------------------------------------------------ *)

let test_xs_read_write () =
  let xs = Xenstore.create () in
  Xenstore.write xs ~domid:0 ~path:"/local/domain/1/name" "net";
  check_str_opt "read back" (Some "net")
    (Xenstore.read xs ~path:"/local/domain/1/name");
  check_str_opt "missing" None (Xenstore.read xs ~path:"/nope");
  check_bool "exists" true (Xenstore.exists xs ~path:"/local/domain/1");
  Xenstore.write xs ~domid:0 ~path:"/local/domain/1/name" "net2";
  check_str_opt "updated" (Some "net2")
    (Xenstore.read xs ~path:"/local/domain/1/name")

let test_xs_directory () =
  let xs = Xenstore.create () in
  Xenstore.write xs ~domid:0 ~path:"/a/b" "1";
  Xenstore.write xs ~domid:0 ~path:"/a/c" "2";
  Xenstore.write xs ~domid:0 ~path:"/a/a" "3";
  Alcotest.(check (list string))
    "sorted children" [ "a"; "b"; "c" ]
    (Xenstore.directory xs ~path:"/a");
  Alcotest.(check (list string)) "missing dir" []
    (Xenstore.directory xs ~path:"/zzz")

let test_xs_rm () =
  let xs = Xenstore.create () in
  Xenstore.write xs ~domid:0 ~path:"/a/b/c" "x";
  Xenstore.rm xs ~domid:0 ~path:"/a/b";
  check_bool "subtree gone" false (Xenstore.exists xs ~path:"/a/b/c");
  check_bool "parent stays" true (Xenstore.exists xs ~path:"/a");
  (* removing a missing path is a no-op *)
  Xenstore.rm xs ~domid:0 ~path:"/a/zz"

let test_xs_permissions () =
  let xs = Xenstore.create () in
  Xenstore.mkdir xs ~domid:0 ~path:"/local/domain/7";
  Xenstore.set_owner xs ~path:"/local/domain/7" ~domid:7;
  (* Domain 7 can write in its own subtree. *)
  Xenstore.write xs ~domid:7 ~path:"/local/domain/7/data" "ok";
  (* ... but not elsewhere. *)
  (try
     Xenstore.write xs ~domid:7 ~path:"/local/domain/0/etc" "evil";
     Alcotest.fail "expected Permission_denied"
   with Xenstore.Permission_denied _ -> ());
  (* Dom0 can write anywhere. *)
  Xenstore.write xs ~domid:0 ~path:"/local/domain/7/ctl" "fine"

let test_xs_inherit_owner () =
  let xs = Xenstore.create () in
  Xenstore.mkdir xs ~domid:0 ~path:"/local/domain/3";
  Xenstore.set_owner xs ~path:"/local/domain/3" ~domid:3;
  (* Intermediate nodes created by domain 3 are owned by it. *)
  Xenstore.write xs ~domid:3 ~path:"/local/domain/3/device/vif/0/state" "1";
  Xenstore.write xs ~domid:3 ~path:"/local/domain/3/device/vif/0/state" "2";
  check_str_opt "nested write" (Some "2")
    (Xenstore.read xs ~path:"/local/domain/3/device/vif/0/state")

let test_xs_watch_fires () =
  let xs = Xenstore.create () in
  let fired = ref [] in
  let _ =
    Xenstore.watch xs ~path:"/be" ~token:"tok" (fun ~path ~token ->
        fired := (path, token) :: !fired)
  in
  (* Registration fires immediately once. *)
  check_int "registration event" 1 (List.length !fired);
  Xenstore.write xs ~domid:0 ~path:"/be/vif/1" "x";
  check_int "subtree change fires" 2 (List.length !fired);
  (match !fired with
  | (p, tok) :: _ ->
      Alcotest.(check string) "path" "/be/vif/1" p;
      Alcotest.(check string) "token" "tok" tok
  | [] -> Alcotest.fail "no events");
  Xenstore.write xs ~domid:0 ~path:"/other" "y";
  check_int "unrelated change ignored" 2 (List.length !fired)

let test_xs_unwatch () =
  let xs = Xenstore.create () in
  let fired = ref 0 in
  let id =
    Xenstore.watch xs ~path:"/w" ~token:"t" (fun ~path:_ ~token:_ ->
        incr fired)
  in
  Xenstore.unwatch xs id;
  Xenstore.write xs ~domid:0 ~path:"/w/x" "1";
  check_int "only registration event" 1 !fired

let test_xs_watch_on_rm () =
  let xs = Xenstore.create () in
  Xenstore.write xs ~domid:0 ~path:"/w/x" "1";
  let fired = ref 0 in
  let _ =
    Xenstore.watch xs ~path:"/w" ~token:"t" (fun ~path:_ ~token:_ ->
        incr fired)
  in
  Xenstore.rm xs ~domid:0 ~path:"/w/x";
  check_int "rm fires watch" 2 !fired

let test_xs_transaction_commit () =
  let xs = Xenstore.create () in
  let tx = Xenstore.tx_start xs in
  Xenstore.tx_write tx ~domid:0 ~path:"/t/a" "1";
  Xenstore.tx_write tx ~domid:0 ~path:"/t/b" "2";
  (* Buffered writes are invisible until commit... *)
  check_str_opt "invisible" None (Xenstore.read xs ~path:"/t/a");
  (* ...but visible to the transaction itself. *)
  check_str_opt "tx sees own" (Some "1") (Xenstore.tx_read tx ~path:"/t/a");
  check_bool "commits" true (Xenstore.tx_commit tx = `Committed);
  check_str_opt "applied" (Some "2") (Xenstore.read xs ~path:"/t/b")

let test_xs_transaction_conflict () =
  let xs = Xenstore.create () in
  let tx = Xenstore.tx_start xs in
  Xenstore.tx_write tx ~domid:0 ~path:"/t/a" "1";
  (* Concurrent mutation invalidates the transaction. *)
  Xenstore.write xs ~domid:0 ~path:"/other" "x";
  check_bool "conflicts" true (Xenstore.tx_commit tx = `Conflict);
  check_str_opt "not applied" None (Xenstore.read xs ~path:"/t/a")

let test_xs_transaction_abort () =
  let xs = Xenstore.create () in
  let tx = Xenstore.tx_start xs in
  Xenstore.tx_write tx ~domid:0 ~path:"/t/a" "1";
  Xenstore.tx_abort tx;
  check_str_opt "aborted" None (Xenstore.read xs ~path:"/t/a")

let test_xs_split_path () =
  Alcotest.(check (list string))
    "normal" [ "a"; "b"; "c" ]
    (Xenstore.split_path "/a/b//c");
  Alcotest.check_raises "empty"
    (Invalid_argument "Xenstore.split_path: empty path") (fun () ->
      ignore (Xenstore.split_path ""))

let prop_xs_last_write_wins =
  QCheck.Test.make ~name:"xenstore: last write wins" ~count:100
    QCheck.(list (pair (string_of_size (QCheck.Gen.return 3)) small_string))
    (fun writes ->
      let xs = Xenstore.create () in
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun (k, v) ->
          let k = if k = "" then "k" else k in
          let k = String.map (fun c -> if c = '/' then '_' else c) k in
          Xenstore.write xs ~domid:0 ~path:("/p/" ^ k) v;
          Hashtbl.replace tbl k v)
        writes;
      Hashtbl.fold
        (fun k v acc -> acc && Xenstore.read xs ~path:("/p/" ^ k) = Some v)
        tbl true)

(* ------------------------------------------------------------------ *)
(* Ring                                                                *)
(* ------------------------------------------------------------------ *)

let test_ring_req_flow () =
  let r : (int, string) Ring.t = Ring.create ~order:2 in
  check_int "size" 4 (Ring.size r);
  check_int "free" 4 (Ring.free_requests r);
  Ring.push_request r 10;
  Ring.push_request r 11;
  (* Not yet published. *)
  check_int "backend sees nothing" 0 (Ring.pending_requests r);
  let notify = Ring.push_requests_and_check_notify r in
  check_bool "first publish notifies" true notify;
  check_int "pending" 2 (Ring.pending_requests r);
  Alcotest.(check (option int)) "take 1" (Some 10) (Ring.take_request r);
  Alcotest.(check (option int)) "take 2" (Some 11) (Ring.take_request r);
  Alcotest.(check (option int)) "empty" None (Ring.take_request r)

let test_ring_rsp_flow () =
  let r : (int, string) Ring.t = Ring.create ~order:2 in
  Ring.push_request r 1;
  ignore (Ring.push_requests_and_check_notify r);
  ignore (Ring.take_request r);
  Ring.push_response r "ok";
  ignore (Ring.push_responses_and_check_notify r);
  check_int "pending rsp" 1 (Ring.pending_responses r);
  Alcotest.(check (option string)) "take rsp" (Some "ok")
    (Ring.take_response r);
  check_int "free again" 4 (Ring.free_requests r)

let test_ring_full () =
  let r : (int, int) Ring.t = Ring.create ~order:1 in
  Ring.push_request r 1;
  Ring.push_request r 2;
  check_int "no free" 0 (Ring.free_requests r);
  Alcotest.check_raises "full" Ring.Ring_full (fun () ->
      Ring.push_request r 3)

let test_ring_notify_suppression () =
  let r : (int, int) Ring.t = Ring.create ~order:4 in
  Ring.push_request r 1;
  check_bool "notify 1st" true (Ring.push_requests_and_check_notify r);
  (* Backend has not re-armed: further pushes should not notify. *)
  Ring.push_request r 2;
  check_bool "suppressed" false (Ring.push_requests_and_check_notify r);
  (* Backend drains and re-arms. *)
  ignore (Ring.take_request r);
  ignore (Ring.take_request r);
  check_bool "nothing raced in" false (Ring.final_check_for_requests r);
  Ring.push_request r 3;
  check_bool "re-armed notifies" true (Ring.push_requests_and_check_notify r)

let test_ring_final_check_race () =
  let r : (int, int) Ring.t = Ring.create ~order:4 in
  Ring.push_request r 1;
  ignore (Ring.push_requests_and_check_notify r);
  (* Request arrived before the backend re-armed: final check sees it. *)
  check_bool "raced in" true (Ring.final_check_for_requests r)

let test_ring_wraparound () =
  let r : (int, int) Ring.t = Ring.create ~order:1 in
  for i = 1 to 10 do
    Ring.push_request r i;
    ignore (Ring.push_requests_and_check_notify r);
    (match Ring.take_request r with
    | Some v -> check_int "fifo across wrap" i v
    | None -> Alcotest.fail "missing request");
    Ring.push_response r (i * 2);
    ignore (Ring.push_responses_and_check_notify r);
    match Ring.take_response r with
    | Some v -> check_int "rsp across wrap" (i * 2) v
    | None -> Alcotest.fail "missing response"
  done

let prop_ring_fifo =
  QCheck.Test.make ~name:"ring preserves request order" ~count:100
    QCheck.(list small_int)
    (fun xs ->
      let r : (int, int) Ring.t = Ring.create ~order:6 in
      let out = ref [] in
      let drain () =
        let rec go () =
          match Ring.take_request r with
          | Some v ->
              out := v :: !out;
              Ring.push_response r v;
              ignore (Ring.push_responses_and_check_notify r);
              ignore (Ring.take_response r);
              go ()
          | None -> ()
        in
        ignore (Ring.push_requests_and_check_notify r);
        go ()
      in
      List.iter
        (fun x ->
          if Ring.free_requests r = 0 then drain ();
          Ring.push_request r x)
        xs;
      drain ();
      List.rev !out = xs)

(* ------------------------------------------------------------------ *)
(* Event channels                                                      *)
(* ------------------------------------------------------------------ *)

let test_evtchn_delivery () =
  let hv = Hypervisor.create () in
  let delivered_at = ref (-1) in
  let ec = Event_channel.create hv in
  let back =
    Hypervisor.create_domain hv ~name:"back" ~kind:Domain.Driver_domain
      ~vcpus:1 ~mem_mb:1024
  in
  let front =
    Hypervisor.create_domain hv ~name:"front" ~kind:Domain.Dom_u ~vcpus:1
      ~mem_mb:1024
  in
  let port = Event_channel.alloc_unbound ec back ~remote:front in
  Event_channel.bind ec port front;
  Event_channel.set_handler ec port front (fun () ->
      delivered_at := Hypervisor.now hv);
  check_bool "connected" true (Event_channel.is_connected ec port);
  Hypervisor.spawn hv back ~name:"notifier" (fun () ->
      Event_channel.notify ec port ~from:back);
  Hypervisor.run hv;
  check_bool "delivered" true (!delivered_at >= 0);
  (* Delivery happens after hypercall cost + interrupt latency. *)
  check_bool "after latency" true
    (!delivered_at >= Costs.default.Costs.interrupt_latency)

let test_evtchn_coalescing_check () =
  let hv = Hypervisor.create () in
  let ec = Event_channel.create hv in
  let a =
    Hypervisor.create_domain hv ~name:"a" ~kind:Domain.Driver_domain ~vcpus:1
      ~mem_mb:512
  in
  let b =
    Hypervisor.create_domain hv ~name:"b" ~kind:Domain.Dom_u ~vcpus:1
      ~mem_mb:512
  in
  let port = Event_channel.alloc_unbound ec a ~remote:b in
  Event_channel.bind ec port b;
  let count = ref 0 in
  Event_channel.set_handler ec port b (fun () -> incr count);
  Hypervisor.spawn hv a ~name:"burst" (fun () ->
      (* Three back-to-back notifies within the delivery latency window
         coalesce into one interrupt — the event-channel pending bit. *)
      Event_channel.notify ec port ~from:a;
      Event_channel.notify ec port ~from:a;
      Event_channel.notify ec port ~from:a);
  Hypervisor.run hv;
  check_int "sent 3" 3 (Event_channel.notifications_sent ec);
  check_int "delivered once" 1 (Event_channel.notifications_delivered ec);
  check_int "handler ran once" 1 !count

let test_evtchn_bidirectional () =
  let hv = Hypervisor.create () in
  let got_a = ref false and got_b = ref false in
  let ec = Event_channel.create hv in
  let a =
    Hypervisor.create_domain hv ~name:"a" ~kind:Domain.Driver_domain ~vcpus:1
      ~mem_mb:512
  in
  let b =
    Hypervisor.create_domain hv ~name:"b" ~kind:Domain.Dom_u ~vcpus:1
      ~mem_mb:512
  in
  let port = Event_channel.alloc_unbound ec a ~remote:b in
  Event_channel.bind ec port b;
  Event_channel.set_handler ec port a (fun () -> got_a := true);
  Event_channel.set_handler ec port b (fun () -> got_b := true);
  Hypervisor.spawn hv a ~name:"a" (fun () ->
      Event_channel.notify ec port ~from:a);
  Hypervisor.spawn hv b ~name:"b" (fun () ->
      Event_channel.notify ec port ~from:b);
  Hypervisor.run hv;
  check_bool "a received" true !got_a;
  check_bool "b received" true !got_b

let test_evtchn_errors () =
  let hv = Hypervisor.create () in
  let ec = Event_channel.create hv in
  let a =
    Hypervisor.create_domain hv ~name:"a" ~kind:Domain.Driver_domain ~vcpus:1
      ~mem_mb:512
  in
  let b =
    Hypervisor.create_domain hv ~name:"b" ~kind:Domain.Dom_u ~vcpus:1
      ~mem_mb:512
  in
  let c =
    Hypervisor.create_domain hv ~name:"c" ~kind:Domain.Dom_u ~vcpus:1
      ~mem_mb:512
  in
  let port = Event_channel.alloc_unbound ec a ~remote:b in
  (try
     Event_channel.bind ec port c;
     Alcotest.fail "expected Evtchn_error (wrong domain)"
   with Event_channel.Evtchn_error _ -> ());
  Event_channel.bind ec port b;
  (try
     Event_channel.bind ec port b;
     Alcotest.fail "expected Evtchn_error (double bind)"
   with Event_channel.Evtchn_error _ -> ());
  (try
     Event_channel.set_handler ec 999 a (fun () -> ());
     Alcotest.fail "expected Evtchn_error (bad port)"
   with Event_channel.Evtchn_error _ -> ());
  Event_channel.close ec port;
  check_bool "closed not connected" false (Event_channel.is_connected ec port)

(* ------------------------------------------------------------------ *)
(* Grant tables                                                        *)
(* ------------------------------------------------------------------ *)

let domains_for_grants hv =
  let g =
    Hypervisor.create_domain hv ~name:"granter" ~kind:Domain.Dom_u ~vcpus:1
      ~mem_mb:512
  in
  let e =
    Hypervisor.create_domain hv ~name:"grantee" ~kind:Domain.Driver_domain
      ~vcpus:1 ~mem_mb:512
  in
  (g, e)

let test_grant_map_shares_page () =
  let hv = Hypervisor.create () in
  let gt = Grant_table.create hv in
  let granter, grantee = domains_for_grants hv in
  let page = Page.alloc () in
  Page.write page ~off:0 (Bytes.of_string "hello");
  let r = Grant_table.grant_access gt ~granter ~grantee ~page ~writable:true in
  let seen = ref "" in
  Hypervisor.spawn hv grantee ~name:"mapper" (fun () ->
      let mapped = Grant_table.map gt ~grantee r in
      seen := Bytes.to_string (Page.read mapped ~off:0 ~len:5);
      (* Writes through the mapping are visible to the granter. *)
      Page.write mapped ~off:0 (Bytes.of_string "HELLO");
      Grant_table.unmap gt ~grantee r);
  Hypervisor.run hv;
  Alcotest.(check string) "read shared" "hello" !seen;
  Alcotest.(check string) "write shared" "HELLO"
    (Bytes.to_string (Page.read page ~off:0 ~len:5))

let test_grant_persistent_fast_path () =
  let hv = Hypervisor.create () in
  let gt = Grant_table.create hv in
  let granter, grantee = domains_for_grants hv in
  let page = Page.alloc () in
  let r = Grant_table.grant_access gt ~granter ~grantee ~page ~writable:true in
  Hypervisor.spawn hv grantee ~name:"mapper" (fun () ->
      ignore (Grant_table.map gt ~grantee r);
      (* Second map of an already-mapped (persistent) grant is free. *)
      ignore (Grant_table.map gt ~grantee r));
  Hypervisor.run hv;
  check_int "only one real map" 1 (Grant_table.map_count gt);
  check_int "one map hypercall" 1
    (Metrics.count (Hypervisor.metrics hv) "hypercall.grant_map")

let test_grant_batched_map () =
  let hv = Hypervisor.create () in
  let gt = Grant_table.create hv in
  let granter, grantee = domains_for_grants hv in
  let refs =
    List.init 8 (fun _ ->
        Grant_table.grant_access gt ~granter ~grantee ~page:(Page.alloc ())
          ~writable:false)
  in
  Hypervisor.spawn hv grantee ~name:"mapper" (fun () ->
      let entries =
        Array.of_list
          (List.map (fun r -> Option.get (Grant_table.find gt r)) refs)
      in
      Grant_table.map_many gt ~grantee entries;
      check_int "all mapped" 8
        (Array.length (Array.map Grant_table.page entries)));
  Hypervisor.run hv;
  check_int "eight map ops" 8 (Grant_table.map_count gt);
  check_int "single batched hypercall" 1
    (Metrics.count (Hypervisor.metrics hv) "hypercall.grant_map")

let test_grant_copy () =
  let hv = Hypervisor.create () in
  let gt = Grant_table.create hv in
  let granter, grantee = domains_for_grants hv in
  let page = Page.alloc () in
  let r = Grant_table.grant_access gt ~granter ~grantee ~page ~writable:true in
  Hypervisor.spawn hv grantee ~name:"copier" (fun () ->
      Grant_table.copy_to_granted gt ~caller:grantee r ~off:10
        (Bytes.of_string "abc");
      let back =
        Grant_table.copy_from_granted gt ~caller:grantee r ~off:10 ~len:3
      in
      Alcotest.(check string) "roundtrip" "abc" (Bytes.to_string back));
  Hypervisor.run hv;
  check_int "no mapping involved" 0 (Grant_table.map_count gt);
  check_int "two copy hypercalls" 2
    (Metrics.count (Hypervisor.metrics hv) "hypercall.grant_copy")

let test_grant_errors () =
  let hv = Hypervisor.create () in
  let gt = Grant_table.create hv in
  let granter, grantee = domains_for_grants hv in
  let other =
    Hypervisor.create_domain hv ~name:"other" ~kind:Domain.Dom_u ~vcpus:1
      ~mem_mb:512
  in
  let page = Page.alloc () in
  let r = Grant_table.grant_access gt ~granter ~grantee ~page ~writable:false in
  Hypervisor.spawn hv other ~name:"attacker" (fun () ->
      (* Mapping someone else's grant must fail. *)
      (try
         ignore (Grant_table.map gt ~grantee:other r);
         Alcotest.fail "expected Grant_error (wrong grantee)"
       with Grant_table.Grant_error _ -> ());
      (* Writing through a read-only grant must fail. *)
      try
        Grant_table.copy_to_granted gt ~caller:grantee r ~off:0
          (Bytes.of_string "x");
        Alcotest.fail "expected Grant_error (read-only)"
      with Grant_table.Grant_error _ -> ());
  Hypervisor.run hv;
  (* end_access of a mapped grant fails; after unmap it succeeds. *)
  Hypervisor.spawn hv grantee ~name:"mapper" (fun () ->
      ignore (Grant_table.map gt ~grantee r);
      (try
         Grant_table.end_access gt ~granter r;
         Alcotest.fail "expected Grant_error (still mapped)"
       with Grant_table.Grant_error _ -> ());
      Grant_table.unmap gt ~grantee r;
      Grant_table.end_access gt ~granter r);
  Hypervisor.run hv;
  check_int "no grants left" 0 (Grant_table.active_grants gt)

(* ------------------------------------------------------------------ *)
(* Xenbus                                                              *)
(* ------------------------------------------------------------------ *)

let test_xenbus_state_encoding () =
  let states =
    Xenbus.[ Initialising; Init_wait; Initialised; Connected; Closing; Closed ]
  in
  List.iteri
    (fun i s ->
      Alcotest.(check string)
        "encode" (string_of_int (i + 1)) (Xenbus.state_to_string s);
      check_bool "roundtrip" true
        (Xenbus.state_of_string (Xenbus.state_to_string s) = Some s))
    states;
  check_bool "garbage" true (Xenbus.state_of_string "nope" = None)

let all_states =
  Xenbus.[ Initialising; Init_wait; Initialised; Connected; Closing; Closed ]

let prop_xenbus_state_roundtrip =
  (* Both directions: every state survives encode/decode, and any wire
     string either decodes to a state that re-encodes to it or to
     nothing at all. *)
  QCheck.Test.make ~name:"xenbus state encoding round-trips" ~count:200
    QCheck.(string_gen_of_size (Gen.int_bound 3) Gen.printable)
    (fun s ->
      List.for_all
        (fun st ->
          Xenbus.state_of_string (Xenbus.state_to_string st) = Some st)
        all_states
      &&
      match Xenbus.state_of_string s with
      | Some st -> Xenbus.state_to_string st = s
      | None -> not (List.mem s [ "1"; "2"; "3"; "4"; "5"; "6" ]))

let test_xenbus_transition_matrix () =
  (* The full 6x6 legality matrix: the handshake edges, teardown from
     any live state, and the reconnect edges (Closing/Closed ->
     Initialising) a frontend takes when its crashed backend domain is
     rebooted.  Same-state rewrites are idempotent and legal. *)
  let open Xenbus in
  let edges =
    [
      (Initialising, Init_wait); (Initialising, Initialised);
      (Init_wait, Initialised); (Init_wait, Connected);
      (Initialised, Connected);
      (Initialising, Closing); (Initialising, Closed);
      (Init_wait, Closing); (Init_wait, Closed);
      (Initialised, Closing); (Initialised, Closed);
      (Connected, Closing); (Connected, Closed);
      (Closing, Closed);
      (Closing, Initialising); (Closed, Initialising);
    ]
  in
  List.iter
    (fun from_ ->
      List.iter
        (fun to_ ->
          let expected = from_ = to_ || List.mem (from_, to_) edges in
          check_bool
            (Format.asprintf "%a -> %a" pp_state from_ pp_state to_)
            expected
            (legal_transition ~from_ ~to_))
        all_states)
    all_states

let test_xenbus_bad_state_reported () =
  (* An unparsable state value reads as Closed (the safe interpretation)
     but is reported through the attached checker instead of being
     silently masked. *)
  let hv = Hypervisor.create () in
  let xb = Xenbus.create hv in
  let report = Kite_check.Report.create () in
  Xenbus.set_check xb (Some (Kite_check.Check.create ~name:"t" report));
  let d =
    Hypervisor.create_domain hv ~name:"d" ~kind:Domain.Dom_u ~vcpus:1
      ~mem_mb:512
  in
  let path = Printf.sprintf "/local/domain/%d/device/vbd/0" d.Domain.id in
  let seen = ref [] in
  Hypervisor.spawn hv d ~name:"reader" (fun () ->
      Xenstore.write (Hypervisor.store hv) ~domid:d.Domain.id
        ~path:(path ^ "/state") "banana";
      seen := Xenbus.read_state xb d ~path :: !seen;
      (* A parsable value is not a violation. *)
      Xenstore.write (Hypervisor.store hv) ~domid:d.Domain.id
        ~path:(path ^ "/state")
        (Xenbus.state_to_string Xenbus.Connected);
      seen := Xenbus.read_state xb d ~path :: !seen);
  Hypervisor.run hv;
  check_bool "garbage reads as Closed, then Connected" true
    (!seen = [ Xenbus.Connected; Xenbus.Closed ]);
  check_int "one bad-state finding" 1
    (List.length (Kite_check.Report.by_rule report "xenbus-bad-state"))

let test_xenbus_bad_transition_reported () =
  let hv = Hypervisor.create () in
  let xb = Xenbus.create hv in
  let report = Kite_check.Report.create () in
  Xenbus.set_check xb (Some (Kite_check.Check.create ~name:"t" report));
  let d =
    Hypervisor.create_domain hv ~name:"d" ~kind:Domain.Dom_u ~vcpus:1
      ~mem_mb:512
  in
  let path = Printf.sprintf "/local/domain/%d/device/vif/0" d.Domain.id in
  Hypervisor.spawn hv d ~name:"fsm" (fun () ->
      Xenbus.switch_state xb d ~path Xenbus.Initialising;
      (* Initialising -> Connected skips the handshake: flagged. *)
      Xenbus.switch_state xb d ~path Xenbus.Connected;
      (* The reconnect edge after a backend reboot is legal. *)
      Xenbus.switch_state xb d ~path Xenbus.Closed;
      Xenbus.switch_state xb d ~path Xenbus.Initialising);
  Hypervisor.run hv;
  check_int "exactly the illegal edge flagged" 1
    (List.length (Kite_check.Report.by_rule report "xenbus-bad-transition"))

let test_xenbus_paths () =
  let b =
    { Domain.id = 2; name = "nb"; kind = Domain.Driver_domain; vcpus = 1; mem_mb = 1 }
  in
  let f =
    { Domain.id = 5; name = "u"; kind = Domain.Dom_u; vcpus = 1; mem_mb = 1 }
  in
  Alcotest.(check string)
    "backend" "/local/domain/2/backend/vif/5/0"
    (Xenbus.backend_path ~backend:b ~frontend:f ~ty:"vif" ~devid:0);
  Alcotest.(check string)
    "frontend" "/local/domain/5/device/vif/0"
    (Xenbus.frontend_path ~frontend:f ~ty:"vif" ~devid:0)

let test_xenbus_handshake () =
  (* A miniature frontend/backend negotiation through xenbus states. *)
  let hv = Hypervisor.create () in
  let xb = Xenbus.create hv in
  let back =
    Hypervisor.create_domain hv ~name:"backend" ~kind:Domain.Driver_domain
      ~vcpus:1 ~mem_mb:512
  in
  let front =
    Hypervisor.create_domain hv ~name:"frontend" ~kind:Domain.Dom_u ~vcpus:1
      ~mem_mb:512
  in
  let bpath =
    Xenbus.backend_path ~backend:back ~frontend:front ~ty:"vif" ~devid:0
  in
  let fpath = Xenbus.frontend_path ~frontend:front ~ty:"vif" ~devid:0 in
  let order = ref [] in
  (* Dom0 creates the skeleton paths, as the toolstack would. *)
  Xenstore.mkdir (Hypervisor.store hv) ~domid:0 ~path:bpath;
  Xenstore.set_owner (Hypervisor.store hv) ~path:bpath ~domid:back.Domain.id;
  Xenstore.mkdir (Hypervisor.store hv) ~domid:0 ~path:fpath;
  Xenstore.set_owner (Hypervisor.store hv) ~path:fpath ~domid:front.Domain.id;
  Hypervisor.spawn hv back ~name:"backend" (fun () ->
      Xenbus.switch_state xb back ~path:bpath Xenbus.Init_wait;
      Xenbus.wait_for_state xb back ~path:fpath Xenbus.Initialised;
      order := "back saw front initialised" :: !order;
      Xenbus.switch_state xb back ~path:bpath Xenbus.Connected);
  Hypervisor.spawn hv front ~name:"frontend" (fun () ->
      Xenbus.wait_for_state xb front ~path:bpath Xenbus.Init_wait;
      Xenbus.write xb front ~path:(fpath ^ "/tx-ring-ref") "8";
      Xenbus.switch_state xb front ~path:fpath Xenbus.Initialised;
      Xenbus.wait_for_state xb front ~path:bpath Xenbus.Connected;
      order := "front connected" :: !order);
  Hypervisor.run hv;
  Alcotest.(check (list string))
    "handshake order"
    [ "back saw front initialised"; "front connected" ]
    (List.rev !order);
  Alcotest.(check (option string))
    "params exchanged" (Some "8")
    (Xenstore.read (Hypervisor.store hv) ~path:(fpath ^ "/tx-ring-ref"))

let test_xenbus_wait_already_there () =
  let hv = Hypervisor.create () in
  let xb = Xenbus.create hv in
  let d =
    Hypervisor.create_domain hv ~name:"d" ~kind:Domain.Dom_u ~vcpus:1
      ~mem_mb:512
  in
  let path = Printf.sprintf "/local/domain/%d/device/vbd/0" d.Domain.id in
  let finished = ref false in
  Hypervisor.spawn hv d ~name:"p" (fun () ->
      Xenbus.switch_state xb d ~path Xenbus.Connected;
      Xenbus.wait_for_state xb d ~path Xenbus.Connected;
      finished := true);
  Hypervisor.run hv;
  check_bool "no deadlock" true !finished

let test_hypervisor_accounting () =
  let hv = Hypervisor.create () in
  let d =
    Hypervisor.create_domain hv ~name:"dd" ~kind:Domain.Driver_domain ~vcpus:1
      ~mem_mb:512
  in
  Hypervisor.spawn hv d ~name:"worker" (fun () ->
      Hypervisor.hypercall hv d Hypervisor.Grant_copy ~extra:(Time.us 1);
      Hypervisor.cpu_work hv d (Time.us 5));
  Hypervisor.run hv;
  let m = Hypervisor.metrics hv in
  check_int "hypercall counted" 1 (Metrics.count m "hypercall.grant_copy");
  check_int "busy accounted"
    (Time.us 5 + Time.us 1 + Costs.default.Costs.hypercall_base)
    (Metrics.busy m "vcpu.dd")

(* A hypercall allocates nothing beyond the vCPU sleep it ends in: no
   key string, no option, no closure.  One process on a 1-vCPU domain,
   warmed up, times 100,000 bare sleeps and 100,000 hypercalls of each
   kind; a hypercall's minor words per call, less a sleep's, must be at
   most 0.01. *)
let test_hypercall_alloc_budget () =
  let hv = Hypervisor.create () in
  let d =
    Hypervisor.create_domain hv ~name:"dd" ~kind:Domain.Driver_domain ~vcpus:1
      ~mem_mb:512
  in
  let calls =
    Hypervisor.
      [
        (Grant_map, "grant_map");
        (Grant_unmap, "grant_unmap");
        (Grant_copy, "grant_copy");
        (Evtchn_send, "evtchn_send");
        (Xenstore_op, "xenstore_op");
      ]
  in
  let n = 100_000 in
  let words f =
    let before = Gc.minor_words () in
    for _ = 1 to n do
      f ()
    done;
    (Gc.minor_words () -. before) /. float_of_int n
  in
  let extra = ref [] in
  Hypervisor.spawn hv d ~name:"worker" (fun () ->
      List.iter (fun (c, _) -> Hypervisor.hypercall hv d c ~extra:0) calls;
      Process.sleep (Time.us 1);
      let sleep = words (fun () -> Process.sleep (Time.us 1)) in
      extra :=
        List.map
          (fun (c, _) ->
            words (fun () -> Hypervisor.hypercall hv d c ~extra:(Time.us 1))
            -. sleep)
          calls);
  Hypervisor.run hv;
  check_int "every kind measured" (List.length calls) (List.length !extra);
  List.iter2
    (fun (_, name) w ->
      check_bool
        (Printf.sprintf "%s: %.3f minor words beyond the sleep <= 0.01" name w)
        true (w <= 0.01);
      check_int (name ^ " counted") (n + 1)
        (Metrics.count (Hypervisor.metrics hv) ("hypercall." ^ name)))
    calls !extra

let test_vcpu_contention_single () =
  (* Two concurrent 10us work items on a 1-vCPU domain serialize. *)
  let hv = Hypervisor.create () in
  let d =
    Hypervisor.create_domain hv ~name:"uni" ~kind:Domain.Driver_domain
      ~vcpus:1 ~mem_mb:256
  in
  let finish = ref [] in
  for i = 1 to 2 do
    Hypervisor.spawn hv d ~name:(Printf.sprintf "w%d" i) (fun () ->
        Hypervisor.cpu_work hv d (Time.us 10);
        finish := Hypervisor.now hv :: !finish)
  done;
  Hypervisor.run hv;
  (match List.sort compare !finish with
  | [ a; b ] ->
      check_int "first at 10us" (Time.us 10) a;
      check_int "second serialized to 20us" (Time.us 20) b
  | _ -> Alcotest.fail "expected two completions");
  check_int "busy accounted" (Time.us 20)
    (Metrics.busy (Hypervisor.metrics hv) "vcpu.uni")

let test_vcpu_contention_multi () =
  (* The same work on a 4-vCPU domain overlaps. *)
  let hv = Hypervisor.create () in
  let d =
    Hypervisor.create_domain hv ~name:"smp" ~kind:Domain.Dom_u ~vcpus:4
      ~mem_mb:256
  in
  let finish = ref [] in
  for i = 1 to 4 do
    Hypervisor.spawn hv d ~name:(Printf.sprintf "w%d" i) (fun () ->
        Hypervisor.cpu_work hv d (Time.us 10);
        finish := Hypervisor.now hv :: !finish)
  done;
  Hypervisor.run hv;
  List.iter (fun at -> check_int "all parallel" (Time.us 10) at) !finish

let test_vcpu_contention_overflow () =
  (* Five work items on 4 vCPUs: one queues behind the earliest-free. *)
  let hv = Hypervisor.create () in
  let d =
    Hypervisor.create_domain hv ~name:"smp" ~kind:Domain.Dom_u ~vcpus:4
      ~mem_mb:256
  in
  let latest = ref 0 in
  for i = 1 to 5 do
    Hypervisor.spawn hv d ~name:(Printf.sprintf "w%d" i) (fun () ->
        Hypervisor.cpu_work hv d (Time.us 10);
        latest := max !latest (Hypervisor.now hv))
  done;
  Hypervisor.run hv;
  check_int "fifth waits a slot" (Time.us 20) !latest

let test_domain_registry () =
  let hv = Hypervisor.create () in
  let d1 =
    Hypervisor.create_domain hv ~name:"net" ~kind:Domain.Driver_domain
      ~vcpus:1 ~mem_mb:1024
  in
  check_int "dom0 id" 0 (Hypervisor.dom0 hv).Domain.id;
  check_int "first domid" 1 d1.Domain.id;
  check_bool "find" true (Hypervisor.find_domain hv 1 = Some d1);
  check_bool "missing" true (Hypervisor.find_domain hv 99 = None);
  check_int "count" 2 (List.length (Hypervisor.domains hv));
  check_bool "home created" true
    (Xenstore.exists (Hypervisor.store hv) ~path:"/local/domain/1");
  Alcotest.check_raises "no second dom0"
    (Invalid_argument "Hypervisor.create_domain: Dom0") (fun () ->
      ignore
        (Hypervisor.create_domain hv ~name:"evil" ~kind:Domain.Dom0 ~vcpus:1
           ~mem_mb:1))

let test_page_bounds () =
  let p = Page.alloc () in
  Alcotest.check_raises "oob"
    (Invalid_argument "Page: range 4090+10 out of bounds") (fun () ->
      ignore (Page.read p ~off:4090 ~len:10));
  Page.fill p 'x';
  Alcotest.(check string) "fill" "xxx"
    (Bytes.to_string (Page.read p ~off:0 ~len:3))

(* A page made from a frame shares the frame's bytes and reads as a
   zero-padded 4 KiB page; no write, blit or fill reaches the frame. *)
let test_page_of_bytes () =
  let frame = Bytes.of_string "frame" in
  let p = Page.of_bytes frame in
  let str ~off ~len = Bytes.to_string (Page.read p ~off ~len) in
  Alcotest.(check string) "prefix" "frame" (str ~off:0 ~len:5);
  Alcotest.(check string) "zero tail" "me\000\000" (str ~off:3 ~len:4);
  Alcotest.(check string) "past the frame" "\000\000" (str ~off:4000 ~len:2);
  let q = Page.alloc () in
  Page.blit ~src:p ~src_off:2 ~dst:q ~dst_off:0 ~len:6;
  Alcotest.(check string) "blit pads" "ame\000\000\000"
    (Bytes.to_string (Page.read q ~off:0 ~len:6));
  Page.write p ~off:4094 (Bytes.of_string "ok");
  Alcotest.(check string) "grown" "frame\000" (str ~off:0 ~len:6);
  Alcotest.(check string) "written" "ok" (str ~off:4094 ~len:2);
  Alcotest.(check string) "frame untouched" "frame" (Bytes.to_string frame);
  let inside = Page.of_bytes frame in
  Page.write inside ~off:1 (Bytes.of_string "RA");
  Alcotest.(check string) "written inside" "fRAme"
    (Bytes.to_string (Page.read inside ~off:0 ~len:5));
  Page.blit ~src:q ~src_off:0 ~dst:(Page.of_bytes frame) ~dst_off:0 ~len:3;
  let full = Bytes.make Page.size 'x' in
  Page.fill (Page.of_bytes full) 'y';
  Alcotest.(check string) "frame untouched by writes inside it" "frame"
    (Bytes.to_string frame);
  Alcotest.(check bool) "full frame untouched by fill" true
    (Bytes.for_all (fun c -> c = 'x') full);
  Alcotest.check_raises "bigger than a page"
    (Invalid_argument "Page.of_bytes: longer than a page") (fun () ->
      ignore (Page.of_bytes (Bytes.create 4097)))

(* In-place page I/O keeps [read]/[write]'s bounds checks, on the page's
   side and on the buffer's. *)
let test_page_read_into_write_from () =
  let p = Page.alloc () in
  let buf = Bytes.of_string "..abcd.." in
  Page.write_from p ~off:4092 buf ~src_off:2 ~len:4;
  Alcotest.(check string) "written at the offsets" "abcd"
    (Bytes.to_string (Page.read p ~off:4092 ~len:4));
  let out = Bytes.make 8 '-' in
  Page.read_into p ~off:4091 ~len:5 out ~dst_off:3;
  Alcotest.(check string) "read at the offsets" "---\000abcd" (Bytes.to_string out);
  let oob name f =
    match f () with
    | () -> Alcotest.failf "%s: no Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  oob "read past the page" (fun () ->
      Page.read_into p ~off:4093 ~len:4 out ~dst_off:0);
  oob "read past the buffer" (fun () ->
      Page.read_into p ~off:0 ~len:4 out ~dst_off:5);
  oob "read before the buffer" (fun () ->
      Page.read_into p ~off:0 ~len:4 out ~dst_off:(-1));
  oob "write past the page" (fun () ->
      Page.write_from p ~off:4094 buf ~src_off:0 ~len:4);
  oob "write past the buffer" (fun () ->
      Page.write_from p ~off:0 buf ~src_off:6 ~len:4);
  oob "negative length" (fun () ->
      Page.write_from p ~off:0 buf ~src_off:0 ~len:(-1));
  Alcotest.(check string) "failed calls wrote nothing" "---\000abcd"
    (Bytes.to_string out)

(* [write_from] into a shared [of_bytes] page copies the page out first:
   neither the caller's source nor the page's original frame changes. *)
let test_page_write_from_of_bytes () =
  let frame = Bytes.of_string "frame" in
  let p = Page.of_bytes frame in
  let src = Bytes.of_string "XY" in
  Page.write_from p ~off:1 src ~src_off:0 ~len:2;
  Alcotest.(check string) "page written" "fXYme"
    (Bytes.to_string (Page.read p ~off:0 ~len:5));
  Alcotest.(check string) "frame untouched" "frame" (Bytes.to_string frame);
  Alcotest.(check string) "source untouched" "XY" (Bytes.to_string src);
  let out = Bytes.make 3 '-' in
  Page.read_into (Page.of_bytes frame) ~off:3 ~len:3 out ~dst_off:0;
  Alcotest.(check string) "short page reads zero past its frame" "me\000"
    (Bytes.to_string out)

(* The shape generation moves when the tree's shape does: a created
   node or a removed subtree, never a value update. *)
let test_xs_shape_generation () =
  let xs = Xenstore.create () in
  let g () = Xenstore.shape_generation xs in
  Xenstore.write xs ~domid:0 ~path:"/a/b" "1";
  let g0 = g () in
  check_bool "creating /a/b moved it" true (g0 > 0);
  Xenstore.write xs ~domid:0 ~path:"/a/b" "2";
  Xenstore.mkdir xs ~domid:0 ~path:"/a";
  check_int "value updates and an existing mkdir leave it" g0 (g ());
  Xenstore.write xs ~domid:0 ~path:"/a/c" "3";
  let g1 = g () in
  check_bool "a new sibling moves it" true (g1 > g0);
  Xenstore.rm xs ~domid:0 ~path:"/a/c";
  check_bool "a removal moves it" true (g () > g1);
  check_bool "the global generation counts every mutation" true
    (Xenstore.generation xs > g ())

let suite =
  [
    ("xenstore read/write", `Quick, test_xs_read_write);
    ("xenstore directory", `Quick, test_xs_directory);
    ("xenstore rm", `Quick, test_xs_rm);
    ("xenstore permissions", `Quick, test_xs_permissions);
    ("xenstore owner inheritance", `Quick, test_xs_inherit_owner);
    ("xenstore watches", `Quick, test_xs_watch_fires);
    ("xenstore unwatch", `Quick, test_xs_unwatch);
    ("xenstore watch on rm", `Quick, test_xs_watch_on_rm);
    ("xenstore tx commit", `Quick, test_xs_transaction_commit);
    ("xenstore tx conflict", `Quick, test_xs_transaction_conflict);
    ("xenstore tx abort", `Quick, test_xs_transaction_abort);
    ("xenstore split_path", `Quick, test_xs_split_path);
    ("ring request flow", `Quick, test_ring_req_flow);
    ("ring response flow", `Quick, test_ring_rsp_flow);
    ("ring full", `Quick, test_ring_full);
    ("ring notify suppression", `Quick, test_ring_notify_suppression);
    ("ring final-check race", `Quick, test_ring_final_check_race);
    ("ring wraparound", `Quick, test_ring_wraparound);
    ("evtchn delivery", `Quick, test_evtchn_delivery);
    ("evtchn coalescing", `Quick, test_evtchn_coalescing_check);
    ("evtchn bidirectional", `Quick, test_evtchn_bidirectional);
    ("evtchn errors", `Quick, test_evtchn_errors);
    ("grant map shares page", `Quick, test_grant_map_shares_page);
    ("grant persistent fast path", `Quick, test_grant_persistent_fast_path);
    ("grant batched map", `Quick, test_grant_batched_map);
    ("grant copy", `Quick, test_grant_copy);
    ("grant errors", `Quick, test_grant_errors);
    ("xenbus state encoding", `Quick, test_xenbus_state_encoding);
    ("xenbus transition matrix", `Quick, test_xenbus_transition_matrix);
    ("xenbus bad state reported", `Quick, test_xenbus_bad_state_reported);
    ("xenbus bad transition reported", `Quick, test_xenbus_bad_transition_reported);
    ("xenbus device paths", `Quick, test_xenbus_paths);
    ("xenbus handshake", `Quick, test_xenbus_handshake);
    ("xenbus wait when already there", `Quick, test_xenbus_wait_already_there);
    ("hypervisor accounting", `Quick, test_hypervisor_accounting);
    ("hypercall alloc budget", `Quick, test_hypercall_alloc_budget);
    ("vcpu contention (1 vcpu)", `Quick, test_vcpu_contention_single);
    ("vcpu contention (smp)", `Quick, test_vcpu_contention_multi);
    ("vcpu contention (overflow)", `Quick, test_vcpu_contention_overflow);
    ("domain registry", `Quick, test_domain_registry);
    ("page bounds", `Quick, test_page_bounds);
    ("page of bytes", `Quick, test_page_of_bytes);
    QCheck_alcotest.to_alcotest prop_xs_last_write_wins;
    QCheck_alcotest.to_alcotest prop_ring_fifo;
    QCheck_alcotest.to_alcotest prop_xenbus_state_roundtrip;
    ("page read_into/write_from bounds", `Quick, test_page_read_into_write_from);
    ("page write_from of_bytes", `Quick, test_page_write_from_of_bytes);
    ("xenstore shape generation", `Quick, test_xs_shape_generation);
  ]
