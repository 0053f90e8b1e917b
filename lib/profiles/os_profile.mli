(** Complete per-OS driver-domain profiles, tying together everything
    that distinguishes a Kite service VM from a Linux one outside the data
    path: image, boot sequence, syscall surface, memory assignment, and
    the presence of a rich userland (which gates several CVE classes). *)

type flavor =
  | Kite_network
  | Kite_storage
  | Kite_dhcp
  | Linux_network
  | Linux_storage

type t = {
  flavor : flavor;
  profile_name : string;
  image : Image.t;
  boot : Boot.t;
  syscalls : Syscalls.set;
  assigned_mem_mb : int;
      (** what the evaluation assigns: 1 GB for Kite VMs, 2 GB for Linux
          driver domains *)
  resident_mem_mb : int;
      (** steady-state working set after boot: unikernel heap + I/O
          buffers vs a full distro's kernel + userland *)
  vcpus : int;
  has_shell : bool;  (** can an attacker run a shell? *)
  can_run_crafted_apps : bool;
      (** is there a loader/userland to start arbitrary programs? *)
}

val get : flavor -> t
val all : t list
val is_kite : t -> bool
