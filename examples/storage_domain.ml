(* Storage driver domain walkthrough: export an NVMe device through
   blkback, put a filesystem on the paravirtual disk, and run a small
   file-server workload over it — §5.4 in miniature.

     dune exec examples/storage_domain.exe *)

open Kite_sim
open Kite

let () =
  print_endline "building the storage testbed (Kite storage domain + DomU)...";
  let s = Scenario.storage ~flavor:Scenario.Kite () in

  Scenario.run s.Scenario.bhv ~what:"storage walkthrough" (fun finish ->
      Scenario.when_blk_ready s (fun () ->
          (* The paravirtual disk's geometry is known once the handshake is
             done, so create the blockdev view inside the ready callback. *)
          let dev = Scenario.blockdev s in
          Printf.printf
            "blkfront connected; disk of %d sectors visible in DomU\n"
            dev.Kite_vfs.Blockdev.capacity_sectors;

          (* Straight block I/O through the split driver. *)
          let payload = Bytes.make (256 * 1024) 'K' in
          let t0 = Kite_xen.Hypervisor.now s.Scenario.bhv in
          dev.Kite_vfs.Blockdev.write ~sector:0 payload;
          let back = dev.Kite_vfs.Blockdev.read ~sector:0 ~count:512 in
          Printf.printf "256 KiB write+read through the ring in %s (%s)\n"
            (Time.to_string (Kite_xen.Hypervisor.now s.Scenario.bhv - t0))
            (if Bytes.equal back payload then "verified" else "MISMATCH");

          (* A filesystem on the paravirtual disk. *)
          let fs = Kite_vfs.Fs.format dev in
          Kite_vfs.Fs.mkdir fs ~path:"/var/www";
          Kite_vfs.Fs.create fs ~path:"/var/www/index.html";
          Kite_vfs.Fs.write fs ~path:"/var/www/index.html" ~off:0
            (Bytes.of_string "<h1>served from a Kite storage domain</h1>");
          Printf.printf "file reads back: %S\n"
            (Bytes.to_string
               (Kite_vfs.Fs.read fs ~path:"/var/www/index.html" ~off:0
                  ~len:80));

          (* A filebench-style workload. *)
          Kite_bench_tools.Filebench.prepare fs
            Kite_bench_tools.Filebench.Fileserver ~files:12
            ~mean_file_size:65536;
          Kite_bench_tools.Filebench.run ~sched:s.Scenario.bsched ~fs
            Kite_bench_tools.Filebench.Fileserver ~files:12
            ~mean_file_size:65536 ~io_size:16384 ~threads:4 ~ops_per_thread:25
            ~seed:7
            ~on_done:(fun r ->
              Printf.printf
                "fileserver workload: %d ops, %.1f MB/s, %.2f ms mean latency\n"
                r.Kite_bench_tools.Filebench.ops
                r.Kite_bench_tools.Filebench.throughput_mbps
                r.Kite_bench_tools.Filebench.avg_latency_ms;
              finish ())
            ()));

  let inst =
    List.hd
      (Kite_drivers.Blkback.instances
         (Kite_drivers.Blk_app.blkback s.Scenario.blk_app))
  in
  Printf.printf
    "blkback: %d requests (%d segments) merged into %d device operations\n"
    (Kite_drivers.Blkback.requests_served inst)
    (Kite_drivers.Blkback.segments_served inst)
    (Kite_drivers.Blkback.device_ops inst);
  Printf.printf "NVMe: %d reads, %d writes, %d MB moved\n"
    (Kite_devices.Nvme.reads s.Scenario.nvme)
    (Kite_devices.Nvme.writes s.Scenario.nvme)
    ((Kite_devices.Nvme.bytes_read s.Scenario.nvme
     + Kite_devices.Nvme.bytes_written s.Scenario.nvme)
    / 1024 / 1024)
