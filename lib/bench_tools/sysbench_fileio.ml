open Kite_sim
open Kite_vfs

type result = {
  reads : int;
  writes : int;
  bytes_moved : int;
  throughput_mbps : float;
  avg_latency_ms : float;
}

let file_path i = Printf.sprintf "/sysbench/test_file.%d" i

let prepare fs ~files ~file_size =
  Fs.mkdir fs ~path:"/sysbench";
  for i = 0 to files - 1 do
    let p = file_path i in
    if not (Fs.exists fs ~path:p) then begin
      Fs.create fs ~path:p;
      (* Allocate the file's blocks with a chunked fill. *)
      let chunk = Bytes.make (1 lsl 20) 's' in
      let rec fill off =
        if off < file_size then begin
          let n = min (Bytes.length chunk) (file_size - off) in
          Fs.write fs ~path:p ~off (Bytes.sub chunk 0 n);
          fill (off + n)
        end
      in
      fill 0
    end
  done

let run ~sched ~fs ~files ~file_size ~block_size ~threads ~ops_per_thread
    ~seed ~on_done () =
  let engine = Process.engine sched in
  (* sysbench's default mix: 3 reads to 2 writes. *)
  let rw_r, rw_w = (3, 2) in
  let cycle = rw_r + rw_w in
  let reads = ref 0 in
  let writes = ref 0 in
  let bytes_moved = ref 0 in
  let total_lat = ref 0.0 in
  let finished = ref 0 in
  let t0 = Engine.now engine in
  let payload = Bytes.make block_size 'w' in
  for th = 1 to threads do
    Process.spawn sched ~name:(Printf.sprintf "fileio-%d" th) (fun () ->
        let rng = Rng.create (seed + th) in
        for op = 0 to ops_per_thread - 1 do
          let p = file_path (Rng.int rng files) in
          let max_off = max 1 (file_size - block_size) in
          let off = Rng.int rng max_off in
          let op_start = Engine.now engine in
          if op mod cycle < rw_r then begin
            ignore (Fs.read fs ~path:p ~off ~len:block_size);
            incr reads
          end
          else begin
            Fs.write fs ~path:p ~off payload;
            incr writes
          end;
          bytes_moved := !bytes_moved + block_size;
          total_lat := !total_lat +. Time.to_ms_f (Engine.now engine - op_start)
        done;
        incr finished;
        if !finished = threads then begin
          let elapsed = Time.to_sec_f (Engine.now engine - t0) in
          let ops = !reads + !writes in
          on_done
            {
              reads = !reads;
              writes = !writes;
              bytes_moved = !bytes_moved;
              throughput_mbps = float_of_int !bytes_moved /. elapsed /. 1e6;
              avg_latency_ms = !total_lat /. float_of_int (max 1 ops);
            }
        end)
  done
