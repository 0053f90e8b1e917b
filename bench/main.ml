(* Bechamel microbenchmarks over the packet and security substrate: the
   probes the recorded benchmark (perfbench/) does not time.  The
   experiments themselves run through `kite_ctl run`.

   Usage:
     dune exec bench/main.exe *)

let micro_tests () =
  let open Bechamel in
  let open Toolkit in
  let tcp_header =
    let seg = Bytes.make 1460 'x' in
    let src = Kite_net.Ipv4addr.of_string "10.0.0.1" in
    let dst = Kite_net.Ipv4addr.of_string "10.0.0.2" in
    Test.make ~name:"tcp header over payload (1460B, checksummed)"
      (Staged.stage (fun () ->
           ignore
             (Kite_net.Tcp_wire.header
                {
                  Kite_net.Tcp_wire.src_port = 1;
                  dst_port = 2;
                  seq = 42;
                  ack_num = 41;
                  flags = Kite_net.Tcp_wire.no_flags;
                  window = 65536;
                }
                ~src ~dst ~payload:seg)))
  in
  let checksum =
    let b = Bytes.make 1480 'x' in
    Test.make ~name:"internet checksum (1480B, word-wide)"
      (Staged.stage (fun () -> ignore (Kite_net.Wire.checksum b ~off:0 ~len:1480)))
  in
  let frame_decode =
    let open Kite_net in
    let src = Ipv4addr.of_string "10.0.0.1" in
    let dst = Ipv4addr.of_string "10.0.0.2" in
    let frame =
      Ethernet.encode
        { Ethernet.dst = Macaddr.make_local 2; src = Macaddr.make_local 1;
          ethertype = Ethernet.Ipv4 }
        ~payload:
          (Ipv4.encode
             (Ipv4.make_header ~src ~dst ~protocol:Ipv4.Udp ~ttl:64)
             ~payload:
               (Udp.encode { Udp.src_port = 1; dst_port = 2 } ~src ~dst
                  ~payload:(Bytes.make 1472 'x')))
    in
    Test.make ~name:"udp frame decode in place (1514B, verified)"
      (Staged.stage (fun () ->
           match Ethernet.decode frame with
           | Some (_, ip) -> (
               match Ipv4.decode ip with
               | Some (_, body) -> ignore (Udp.decode [ body ] ~src ~dst)
               | None -> ())
           | None -> ()))
  in
  let gadget_scan =
    let code =
      Kite_security.Image_gen.generate
        { Kite_security.Image_gen.config_name = "bench"; text_kb = 64 }
    in
    Test.make ~name:"gadget scan (64 KiB text)"
      (Staged.stage (fun () -> ignore (Kite_security.Gadget.scan code)))
  in
  let tests = [ tcp_header; checksum; frame_decode; gadget_scan ] in
  let benchmark test =
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
    Benchmark.all cfg Instance.[ monotonic_clock ] test
  in
  let analyze raw =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false
                   ~predictors:[| Measure.run |])
      (Instance.monotonic_clock :> Measure.witness)
      raw
  in
  print_endline "== bechamel microbenchmarks (ns/run) ==";
  List.iter
    (fun test ->
      let results = analyze (benchmark (Test.make_grouped ~name:"g" [ test ])) in
      Hashtbl.iter
        (fun name ols ->
          match Bechamel.Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "  %-45s %12.1f\n%!" name est
          | Some _ | None -> Printf.printf "  %-45s (no estimate)\n%!" name)
        results)
    tests

let () =
  match Array.to_list Sys.argv with
  | [ _ ] | [ _; "--micro" ] -> micro_tests ()
  | _ ->
      prerr_endline
        "usage: bench/main.exe  (experiments run through `kite_ctl run`)";
      exit 2
