(** PCI passthrough.

    Driver domains get direct device access by assignment of a PCI
    function (identified by its BDF — bus:device.function) to the domain.
    Mirrors the xl workflow: a device must first be made {e assignable}
    (detached from Dom0, bound to pciback), then attached to exactly one
    domain.  Safe assignment to an unprivileged domain requires the
    IOMMU, per the paper's threat model. *)

type device = Nic of Nic.t | Nvme of Nvme.t

type t

exception Pci_error of string

val create : ?iommu:bool -> unit -> t
(** [iommu] defaults to true (HVM). *)

val register : t -> bdf:string -> device -> unit
(** Plug a physical device into the machine (owned by Dom0 initially). *)

val assignable_add : t -> bdf:string -> unit
(** [xl pci-assignable-add]: release the device for passthrough. *)

val attach : t -> bdf:string -> Kite_xen.Domain.t -> device
(** [xl pci-attach].  Raises {!Pci_error} if the device is unknown, not
    assignable, already attached elsewhere, or if an unprivileged domain
    requests it without an IOMMU present. *)

val detach : t -> bdf:string -> unit

val owner : t -> bdf:string -> Kite_xen.Domain.t option

val devices : t -> (string * device) list
(** All registered devices with their BDF, sorted by BDF. *)
