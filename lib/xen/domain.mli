(** Xen domains (virtual machines).

    A domain is identified by an integer id; Dom0 is always id 0.  Driver
    domains are unprivileged VMs granted direct device access via PCI
    passthrough. *)

type kind =
  | Dom0  (** the privileged administrative VM *)
  | Driver_domain  (** unprivileged VM running backend + physical drivers *)
  | Dom_u  (** guest VM running applications *)

type t = {
  id : int;
  name : string;
  kind : kind;
  mutable vcpus : int;
  mutable mem_mb : int;
}

val pp : Format.formatter -> t -> unit

val is_privileged : t -> bool
(** True only for Dom0. *)
