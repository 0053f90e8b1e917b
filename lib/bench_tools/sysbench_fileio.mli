(** sysbench fileio (Figure 12): random reads/writes at a 3:2 ratio over
    a prepared set of files, sweeping thread count and block size. *)

type result = {
  reads : int;
  writes : int;
  bytes_moved : int;
  throughput_mbps : float;
  avg_latency_ms : float;
}

val prepare :
  Kite_vfs.Fs.t -> files:int -> file_size:int -> unit
(** Create the test files (sysbench's prepare step). *)

val run :
  sched:Kite_sim.Process.sched ->
  fs:Kite_vfs.Fs.t ->
  files:int ->
  file_size:int ->
  block_size:int ->
  threads:int ->
  ops_per_thread:int ->
  seed:int ->
  on_done:(result -> unit) ->
  unit ->
  unit
(** Random positioned I/O, 3:2 reads:writes. *)
