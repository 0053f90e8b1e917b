open Kite_sim
open Kite_devices

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let setup () =
  let e = Engine.create () in
  let s = Process.scheduler e in
  (e, s)

(* ------------------------------------------------------------------ *)
(* NIC                                                                 *)
(* ------------------------------------------------------------------ *)

let test_nic_delivery () =
  let e, s = setup () in
  let a = Nic.create s ~name:"a" () in
  let b = Nic.create s ~name:"b" () in
  Nic.connect a b ~propagation:(Time.ns 100);
  let got = ref [] in
  Nic.set_rx_handler b (fun frame -> got := Bytes.to_string frame :: !got);
  Process.spawn s ~name:"tx" (fun () ->
      Nic.transmit a (Bytes.of_string "frame1");
      Nic.transmit a (Bytes.of_string "frame2"));
  Engine.run_until e (Time.ms 1);
  Alcotest.(check (list string))
    "in order" [ "frame1"; "frame2" ] (List.rev !got);
  check_int "tx count" 2 (Nic.tx_packets a);
  check_int "rx count" 2 (Nic.rx_packets b);
  check_int "tx bytes" 12 (Nic.tx_bytes a)

let test_nic_serialization_rate () =
  (* A 1250-byte frame at 10 Gbps takes 1 us on the wire. *)
  let e, s = setup () in
  let a = Nic.create s ~name:"a" ~per_packet:0 () in
  let b = Nic.create s ~name:"b" () in
  Nic.connect a b ~propagation:0;
  let arrival = ref 0 in
  Nic.set_rx_handler b (fun _ -> arrival := Engine.now e);
  Process.spawn s ~name:"tx" (fun () ->
      Nic.transmit a (Bytes.create 1250));
  Engine.run_until e (Time.ms 1);
  check_int "1us serialization" (Time.us 1) !arrival

let test_nic_full_duplex () =
  let e, s = setup () in
  let a = Nic.create s ~name:"a" () in
  let b = Nic.create s ~name:"b" () in
  Nic.connect a b ~propagation:0;
  let a_got = ref 0 and b_got = ref 0 in
  Nic.set_rx_handler a (fun _ -> incr a_got);
  Nic.set_rx_handler b (fun _ -> incr b_got);
  Process.spawn s ~name:"a-tx" (fun () -> Nic.transmit a (Bytes.create 100));
  Process.spawn s ~name:"b-tx" (fun () -> Nic.transmit b (Bytes.create 100));
  Engine.run_until e (Time.ms 1);
  check_int "a received" 1 !a_got;
  check_int "b received" 1 !b_got

let test_nic_drops_when_full () =
  let e, s = setup () in
  let a = Nic.create s ~name:"a" ~queue_limit:4 () in
  let b = Nic.create s ~name:"b" () in
  Nic.connect a b ~propagation:0;
  Process.spawn s ~name:"burst" (fun () ->
      (* Burst far beyond the queue limit without yielding. *)
      for _ = 1 to 100 do
        Nic.transmit a (Bytes.create 1500)
      done);
  Engine.run_until e (Time.sec 1);
  check_bool "some dropped" true (Nic.dropped a > 0);
  check_int "conservation" 100 (Nic.tx_packets a + Nic.dropped a);
  check_int "peer got the transmitted ones" (Nic.tx_packets a)
    (Nic.rx_packets b)

let test_nic_double_connect () =
  let _, s = setup () in
  let a = Nic.create s ~name:"a" () in
  let b = Nic.create s ~name:"b" () in
  let c = Nic.create s ~name:"c" () in
  Nic.connect a b ~propagation:0;
  Alcotest.check_raises "wired" (Invalid_argument "Nic.connect: NIC already wired")
    (fun () -> Nic.connect a c ~propagation:0)

let test_nic_throughput_cap () =
  (* Offered 2x line rate: delivered throughput within the run window must
     not exceed the line rate. *)
  let e, s = setup () in
  let a = Nic.create s ~name:"a" ~line_rate_gbps:1.0 ~per_packet:0 ~queue_limit:1_000_000 () in
  let b = Nic.create s ~name:"b" () in
  Nic.connect a b ~propagation:0;
  Nic.set_rx_handler b (fun _ -> ());
  Process.spawn s ~name:"src" (fun () ->
      (* 2 Gbps offered: a 1250-byte frame every 5 us. *)
      for _ = 1 to 2000 do
        Nic.transmit a (Bytes.create 1250);
        Nic.transmit a (Bytes.create 1250);
        Process.sleep (Time.us 10)
      done);
  Engine.run_until e (Time.ms 20);
  let gbps =
    float_of_int (Nic.rx_bytes b * 8) /. Time.to_sec_f (Time.ms 20) /. 1e9
  in
  check_bool "capped at line rate" true (gbps <= 1.01);
  check_bool "saturated" true (gbps > 0.95)

(* ------------------------------------------------------------------ *)
(* NVMe                                                                *)
(* ------------------------------------------------------------------ *)

(* Commands name page ranges, as an NVMe PRP list does.  [pages_of b]
   grants [b] as whole pages; [contents sg] reads them back out. *)
module Page = Kite_xen.Page

let pages_of b =
  let n = Bytes.length b in
  Array.init ((n + Page.size - 1) / Page.size) (fun i ->
      let page = Page.alloc () in
      let len = min Page.size (n - (i * Page.size)) in
      Page.write_from page ~off:0 b ~src_off:(i * Page.size) ~len;
      (page, 0, len))

let fresh ~len = pages_of (Bytes.make len '?')

let contents sg =
  String.concat ""
    (Array.to_list
       (Array.map
          (fun (page, off, len) -> Bytes.to_string (Page.read page ~off ~len))
          sg))

let test_nvme_rw_roundtrip () =
  let e, s = setup () in
  let d = Nvme.create s ~name:"ssd" () in
  let ok = ref false in
  Process.spawn s ~name:"io" (fun () ->
      let data = Bytes.make 1024 'z' in
      Bytes.set data 0 'a';
      Bytes.set data 1023 'b';
      Nvme.write d ~sector:100 (pages_of data);
      let back = fresh ~len:1024 in
      Nvme.read d ~sector:100 back;
      ok := contents back = Bytes.to_string data);
  Engine.run e;
  check_bool "roundtrip" true !ok;
  check_int "reads" 1 (Nvme.reads d);
  check_int "writes" 1 (Nvme.writes d);
  check_int "bytes" 1024 (Nvme.bytes_written d)

let test_nvme_unwritten_zero () =
  let e, s = setup () in
  let d = Nvme.create s ~name:"ssd" () in
  let ok = ref false in
  Process.spawn s ~name:"io" (fun () ->
      let back = fresh ~len:512 in
      Nvme.read d ~sector:12345 back;
      ok := contents back = String.make 512 '\000');
  Engine.run e;
  check_bool "zeroes" true !ok

let test_nvme_partial_overwrite () =
  let e, s = setup () in
  let d = Nvme.create s ~name:"ssd" () in
  let result = ref "" in
  Process.spawn s ~name:"io" (fun () ->
      Nvme.write d ~sector:0 (pages_of (Bytes.make 1024 'a'));
      Nvme.write d ~sector:1 (pages_of (Bytes.make 512 'b'));
      let back = fresh ~len:1024 in
      Nvme.read d ~sector:0 back;
      let got = contents back in
      result := Printf.sprintf "%c%c" got.[0] got.[512]);
  Engine.run e;
  Alcotest.(check string) "second sector overwritten" "ab" !result

let test_nvme_latency () =
  let e, s = setup () in
  let d =
    Nvme.create s ~name:"ssd" ~read_base:(Time.us 25) ~cmd_overhead:0
      ~bandwidth_mbps:1000.0 ()
  in
  let took = ref 0 in
  Process.spawn s ~name:"io" (fun () ->
      let t0 = Engine.now e in
      Nvme.read d ~sector:0 (fresh ~len:4096);
      took := Engine.now e - t0);
  Engine.run e;
  (* 25 us base + 4096 B / 1 GB/s = 4.096 us transfer. *)
  check_int "service time" (Time.us 25 + 4096) !took

let test_nvme_queue_parallelism () =
  (* Two concurrent reads at queue depth 2 overlap; at depth 1 serialize. *)
  let run depth =
    let e, s = setup () in
    let d =
      Nvme.create s ~name:"ssd" ~queue_depth:depth
        ~read_base:(Time.us 100) ~bandwidth_mbps:1e9 ()
    in
    let finished = ref 0 in
    for _ = 1 to 2 do
      Process.spawn s ~name:"io" (fun () ->
          Nvme.read d ~sector:0 (fresh ~len:512);
          finished := Engine.now e)
    done;
    Engine.run e;
    !finished
  in
  check_bool "depth2 overlaps" true (run 2 < run 1)

let test_nvme_out_of_range () =
  let e, s = setup () in
  let d = Nvme.create s ~name:"ssd" ~capacity_sectors:100 () in
  let raised = ref false in
  Process.spawn s ~name:"io" (fun () ->
      try Nvme.read d ~sector:99 (fresh ~len:1024)
      with Nvme.Out_of_range _ -> raised := true);
  Engine.run e;
  check_bool "rejected" true !raised

let test_nvme_unaligned_write () =
  let e, s = setup () in
  let d = Nvme.create s ~name:"ssd" () in
  let raised = ref false in
  Process.spawn s ~name:"io" (fun () ->
      try Nvme.write d ~sector:0 (fresh ~len:100)
      with Invalid_argument _ -> raised := true);
  Engine.run e;
  check_bool "rejected" true !raised;
  check_int "never reached the queue" 0 (Nvme.writes d)

let test_nvme_flush () =
  let e, s = setup () in
  let d = Nvme.create s ~name:"ssd" () in
  let done_ = ref false in
  Process.spawn s ~name:"io" (fun () ->
      Nvme.flush d;
      done_ := true);
  Engine.run e;
  check_bool "flush completes" true !done_

let test_nvme_chunk_boundary () =
  (* Sectors 7 and 8 straddle the media's first 4 KiB page boundary;
     their neighbours 6 and 9 were never written. *)
  let e, s = setup () in
  let d = Nvme.create s ~name:"ssd" () in
  let got = ref "" in
  Process.spawn s ~name:"io" (fun () ->
      let data = Bytes.init 1024 (fun i -> Char.chr (33 + (i mod 90))) in
      Nvme.write d ~sector:7 (pages_of data);
      let back = fresh ~len:2048 in
      Nvme.read d ~sector:6 back;
      got := contents back);
  Engine.run e;
  let expect =
    String.make 512 '\000'
    ^ String.init 1024 (fun i -> Char.chr (33 + (i mod 90)))
    ^ String.make 512 '\000'
  in
  check_bool "written sectors back, neighbours zero" true (!got = expect)

let test_nvme_extent_boundary () =
  (* The media keeps 64 KiB extents (128 sectors).  Sectors 126-129, one
     page range of the command, straddle the first extent boundary; a
     read from the written extent into the never-written third one, and
     a read of a never-written extent, return zeroes there. *)
  let e, s = setup () in
  let d = Nvme.create s ~name:"ssd" () in
  let across = ref "" and into_fresh = ref "" and fresh_extent = ref "" in
  Process.spawn s ~name:"io" (fun () ->
      let data = Bytes.init 2048 (fun i -> Char.chr (33 + (i mod 90))) in
      Nvme.write d ~sector:126 (pages_of data);
      let back = fresh ~len:3072 in
      Nvme.read d ~sector:125 back;
      across := contents back;
      Nvme.write d ~sector:252 (pages_of (Bytes.make 2048 'e'));
      let back = fresh ~len:4096 in
      Nvme.read d ~sector:252 back;
      into_fresh := contents back;
      let back = fresh ~len:8192 in
      Nvme.read d ~sector:1024 back;
      fresh_extent := contents back);
  Engine.run e;
  check_bool "written sectors back across the boundary" true
    (!across
    = String.make 512 '\000'
      ^ String.init 2048 (fun i -> Char.chr (33 + (i mod 90)))
      ^ String.make 512 '\000');
  check_bool "into a never-written extent" true
    (!into_fresh = String.make 2048 'e' ^ String.make 2048 '\000');
  check_bool "never-written extent reads zeroes" true
    (!fresh_extent = String.make 8192 '\000')

let test_nvme_no_alias () =
  (* The media keeps its own copy: scribbling the source page after the
     write completes changes nothing stored. *)
  let e, s = setup () in
  let d = Nvme.create s ~name:"ssd" () in
  let got = ref "" in
  Process.spawn s ~name:"io" (fun () ->
      let sg = pages_of (Bytes.make 4096 'w') in
      Nvme.write d ~sector:8 sg;
      Array.iter (fun (page, _, _) -> Page.fill page 'X') sg;
      let back = fresh ~len:4096 in
      Nvme.read d ~sector:8 back;
      got := contents back);
  Engine.run e;
  check_bool "stored data unchanged" true (!got = String.make 4096 'w')

let test_nvme_page_offsets () =
  (* Segments may start anywhere in their page, and one command may list
     several. *)
  let e, s = setup () in
  let d = Nvme.create s ~name:"ssd" () in
  let src = Page.alloc () and dst = Page.alloc () in
  let got = ref "" and rejected = ref false in
  Process.spawn s ~name:"io" (fun () ->
      Page.write src ~off:1024 (Bytes.make 512 'p');
      Page.write src ~off:3584 (Bytes.make 512 'q');
      Nvme.write d ~sector:3 [| (src, 1024, 512); (src, 3584, 512) |];
      Nvme.read d ~sector:3 [| (dst, 2048, 1024) |];
      got := Bytes.to_string (Page.read dst ~off:2048 ~len:1024);
      try Nvme.read d ~sector:0 [| (dst, 3584, 1024) |]
      with Invalid_argument _ -> rejected := true);
  Engine.run e;
  check_bool "offsets honoured" true
    (!got = String.make 512 'p' ^ String.make 512 'q');
  check_bool "segment past its page rejected" true !rejected;
  check_bool "untouched outside the segment" true
    (Bytes.to_string (Page.read dst ~off:0 ~len:2048)
    = String.make 2048 '\000')

(* ------------------------------------------------------------------ *)
(* PCI                                                                 *)
(* ------------------------------------------------------------------ *)

let dom ~id ~name ~kind =
  { Kite_xen.Domain.id; name; kind; vcpus = 1; mem_mb = 512 }

let test_pci_passthrough_flow () =
  let _, s = setup () in
  let pci = Pci.create () in
  let nic = Nic.create s ~name:"eth0" () in
  Pci.register pci ~bdf:"01:00.0" (Pci.Nic nic);
  let dd = dom ~id:1 ~name:"netdd" ~kind:Kite_xen.Domain.Driver_domain in
  (* Attach before assignable-add fails. *)
  (try
     ignore (Pci.attach pci ~bdf:"01:00.0" dd);
     Alcotest.fail "expected Pci_error (not assignable)"
   with Pci.Pci_error _ -> ());
  Pci.assignable_add pci ~bdf:"01:00.0";
  (match Pci.attach pci ~bdf:"01:00.0" dd with
  | Pci.Nic n -> Alcotest.(check string) "same device" "eth0" (Nic.name n)
  | Pci.Nvme _ -> Alcotest.fail "wrong device");
  check_bool "owner" true (Pci.owner pci ~bdf:"01:00.0" = Some dd);
  (* Double attach fails. *)
  let other = dom ~id:2 ~name:"other" ~kind:Kite_xen.Domain.Dom_u in
  (try
     ignore (Pci.attach pci ~bdf:"01:00.0" other);
     Alcotest.fail "expected Pci_error (already attached)"
   with Pci.Pci_error _ -> ());
  Pci.detach pci ~bdf:"01:00.0";
  check_bool "released" true (Pci.owner pci ~bdf:"01:00.0" = None)

let test_pci_iommu_required () =
  let _, s = setup () in
  let pci = Pci.create ~iommu:false () in
  let nvme = Nvme.create s ~name:"ssd" () in
  Pci.register pci ~bdf:"02:00.0" (Pci.Nvme nvme);
  Pci.assignable_add pci ~bdf:"02:00.0";
  let dd = dom ~id:1 ~name:"stor" ~kind:Kite_xen.Domain.Driver_domain in
  (try
     ignore (Pci.attach pci ~bdf:"02:00.0" dd);
     Alcotest.fail "expected Pci_error (no IOMMU)"
   with Pci.Pci_error _ -> ());
  (* Dom0 may still take it. *)
  let d0 = dom ~id:0 ~name:"Dom0" ~kind:Kite_xen.Domain.Dom0 in
  ignore (Pci.attach pci ~bdf:"02:00.0" d0)

let test_pci_unknown_and_duplicate () =
  let _, s = setup () in
  let pci = Pci.create () in
  (try
     Pci.assignable_add pci ~bdf:"ff:00.0";
     Alcotest.fail "expected Pci_error (unknown)"
   with Pci.Pci_error _ -> ());
  let nic = Nic.create s ~name:"eth0" () in
  Pci.register pci ~bdf:"01:00.0" (Pci.Nic nic);
  (try
     Pci.register pci ~bdf:"01:00.0" (Pci.Nic nic);
     Alcotest.fail "expected Pci_error (duplicate)"
   with Pci.Pci_error _ -> ());
  check_int "inventory" 1 (List.length (Pci.devices pci))

let suite =
  [
    ("nic delivery", `Quick, test_nic_delivery);
    ("nic serialization rate", `Quick, test_nic_serialization_rate);
    ("nic full duplex", `Quick, test_nic_full_duplex);
    ("nic drops when full", `Quick, test_nic_drops_when_full);
    ("nic double connect", `Quick, test_nic_double_connect);
    ("nic throughput cap", `Quick, test_nic_throughput_cap);
    ("nvme rw roundtrip", `Quick, test_nvme_rw_roundtrip);
    ("nvme unwritten zero", `Quick, test_nvme_unwritten_zero);
    ("nvme partial overwrite", `Quick, test_nvme_partial_overwrite);
    ("nvme latency model", `Quick, test_nvme_latency);
    ("nvme queue parallelism", `Quick, test_nvme_queue_parallelism);
    ("nvme out of range", `Quick, test_nvme_out_of_range);
    ("nvme unaligned write", `Quick, test_nvme_unaligned_write);
    ("nvme flush", `Quick, test_nvme_flush);
    ("pci passthrough flow", `Quick, test_pci_passthrough_flow);
    ("pci iommu required", `Quick, test_pci_iommu_required);
    ("pci unknown and duplicate", `Quick, test_pci_unknown_and_duplicate);
    ("nvme chunk boundary", `Quick, test_nvme_chunk_boundary);
    ("nvme extent boundary", `Quick, test_nvme_extent_boundary);
    ("nvme no alias", `Quick, test_nvme_no_alias);
    ("nvme page offsets", `Quick, test_nvme_page_offsets);
  ]
