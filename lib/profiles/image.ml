type category = Kernel | Driver_modules | Runtime | Application | Config

type component = { comp_name : string; size_kb : int; category : category }

type t = { name : string; components : component list }

let name t = t.name
let components t = t.components

let total_kb t =
  List.fold_left (fun acc c -> acc + c.size_kb) 0 t.components

let total_mb t = float_of_int (total_kb t) /. 1024.0

let by_category t =
  let cats = [ Kernel; Driver_modules; Runtime; Application; Config ] in
  List.map
    (fun cat ->
      ( cat,
        List.fold_left
          (fun acc c -> if c.category = cat then acc + c.size_kb else acc)
          0 t.components ))
    cats

let c name size_kb category = { comp_name = name; size_kb; category }

(* A Kite image is the statically linked unikernel binary: BMK, the rump
   kernel glue, the one driver family it needs, and the application. *)
let kite_network =
  {
    name = "kite-network";
    components =
      [
        c "bmk (bare metal kernel)" 420 Kernel;
        c "rump kernel base + hypercalls" 980 Kernel;
        c "netbsd ixgbe driver (10GbE)" 310 Driver_modules;
        c "netbsd tcp/ip stack" 890 Runtime;
        c "netback + xenbus/xenstore" 260 Kernel;
        c "libc subset" 1650 Runtime;
        c "bridge app (ifconfig/brconfig)" 120 Application;
        c "config data" 8 Config;
      ];
  }

let kite_storage =
  {
    name = "kite-storage";
    components =
      [
        c "bmk (bare metal kernel)" 420 Kernel;
        c "rump kernel base + hypercalls" 980 Kernel;
        c "netbsd nvme driver" 270 Driver_modules;
        c "netbsd vnode/block layer" 540 Runtime;
        c "blkback + xenbus/xenstore" 240 Kernel;
        c "libc subset" 1650 Runtime;
        c "vbd status app" 90 Application;
        c "config data" 8 Config;
      ];
  }

let kite_dhcp =
  {
    name = "kite-dhcp";
    components =
      [
        c "bmk (bare metal kernel)" 420 Kernel;
        c "rump kernel base + hypercalls" 980 Kernel;
        c "netbsd tcp/ip stack" 890 Runtime;
        c "libc subset" 1650 Runtime;
        c "OpenDHCP server" 310 Application;
        c "config data" 12 Config;
      ];
  }

(* Ubuntu 18.04 / kernel 5.0: vmlinuz plus the full module tree (what the
   paper measured; userspace excluded). *)
let linux_driver_domain =
  {
    name = "linux-driver-domain";
    components =
      [
        c "vmlinuz 5.0.0-23-generic" 8600 Kernel;
        c "kernel modules (/lib/modules)" 43200 Driver_modules;
        c "initrd (driver domain trim)" 1900 Runtime;
      ];
  }
