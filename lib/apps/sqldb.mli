(** A MySQL-stand-in relational store for the sysbench experiments
    (§5.3.5 network-bound, §5.4.3 storage-bound).

    Tables hold fixed-size rows addressed by integer id.  The network
    experiments use the [Memory] backend (the paper's workload "fits in
    memory ... there is no storage I/O"); the storage experiments use a
    [Raw] backend whose reads go through blkfront, with a bounded buffer
    pool so the working set misses to disk.

    Wire protocol (line-oriented over TCP):
    - ["BEGIN"] / ["COMMIT"] -> ["+OK"]
    - ["PSELECT <table> <id>"] -> ["ROW <len>\n<bytes>"]
    - ["RANGE <table> <id> <n>"] -> ["ROWS <n> <len>\n<bytes>"]
    - ["SUM <table> <id> <n>"] / ["ORDER <table> <id> <n>"] -> ["VAL <v>"]
    - ["UPDATE <table> <id> <len>\n<bytes>"] -> ["+OK"] *)

type backend =
  | Memory
  | Raw of {
      read : sector:int -> count:int -> Bytes.t;
      write : sector:int -> Bytes.t -> unit;
      buffer_pool_rows : int;
    }

type t

val row_size : int
(** 256 bytes (sysbench's ~200-byte rows, padded to half a sector). *)

val start :
  Kite_net.Tcp.t ->
  ?cpu_per_query:Kite_sim.Time.span ->
  ?charge:(Kite_sim.Time.span -> unit) ->
  backend:backend ->
  tables:int ->
  rows_per_table:int ->
  sched:Kite_sim.Process.sched ->
  unit ->
  t
(** Port 3306, by default 8 us of CPU per query.  [charge] consumes the CPU
    time (default [Process.sleep]); pass [Hypervisor.cpu_work] to contend
    for the hosting domain's vCPUs. *)

val queries : t -> int
val buffer_pool_hits : t -> int
val disk_reads : t -> int
