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
  resident_mem_mb : int;
  vcpus : int;
  has_shell : bool;
  can_run_crafted_apps : bool;
}

let get = function
  | Kite_network ->
      {
        flavor = Kite_network;
        profile_name = "Kite network domain";
        image = Image.kite_network;
        boot = Boot.kite_network;
        syscalls = Syscalls.kite_network;
        assigned_mem_mb = 1024;
        resident_mem_mb = 54;
        vcpus = 1;
        has_shell = false;
        can_run_crafted_apps = false;
      }
  | Kite_storage ->
      {
        flavor = Kite_storage;
        profile_name = "Kite storage domain";
        image = Image.kite_storage;
        boot = Boot.kite_storage;
        syscalls = Syscalls.kite_storage;
        assigned_mem_mb = 1024;
        resident_mem_mb = 61;
        vcpus = 1;
        has_shell = false;
        can_run_crafted_apps = false;
      }
  | Kite_dhcp ->
      {
        flavor = Kite_dhcp;
        profile_name = "Kite DHCP daemon VM";
        image = Image.kite_dhcp;
        boot = Boot.kite_dhcp;
        syscalls = Syscalls.kite_dhcp;
        assigned_mem_mb = 512;
        resident_mem_mb = 38;
        vcpus = 1;
        has_shell = false;
        can_run_crafted_apps = false;
      }
  | Linux_network ->
      {
        flavor = Linux_network;
        profile_name = "Ubuntu network driver domain";
        image = Image.linux_driver_domain;
        boot = Boot.linux_driver_domain;
        syscalls = Syscalls.linux_driver_domain;
        assigned_mem_mb = 2048;
        resident_mem_mb = 438;
        vcpus = 1;
        has_shell = true;
        can_run_crafted_apps = true;
      }
  | Linux_storage ->
      {
        flavor = Linux_storage;
        profile_name = "Ubuntu storage driver domain";
        image = Image.linux_driver_domain;
        boot = Boot.linux_driver_domain;
        syscalls = Syscalls.linux_driver_domain;
        assigned_mem_mb = 2048;
        resident_mem_mb = 452;
        vcpus = 1;
        has_shell = true;
        can_run_crafted_apps = true;
      }

let all =
  List.map get
    [ Kite_network; Kite_storage; Kite_dhcp; Linux_network; Linux_storage ]

let is_kite t =
  match t.flavor with
  | Kite_network | Kite_storage | Kite_dhcp -> true
  | Linux_network | Linux_storage -> false
