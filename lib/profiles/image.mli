(** VM image composition (Figure 4b).

    An image is a list of named components with sizes; Kite images contain
    exactly the unikernel pieces the single application links against,
    while the Linux driver-domain image carries the kernel and the module
    tree (the paper excludes Linux userspace from the comparison, so we do
    too). *)

type category = Kernel | Driver_modules | Runtime | Application | Config

type component = { comp_name : string; size_kb : int; category : category }

type t

val name : t -> string
val components : t -> component list
val total_kb : t -> int
val total_mb : t -> float

val by_category : t -> (category * int) list
(** Total KiB per category, in declaration order. *)

val kite_network : t
val kite_storage : t
val kite_dhcp : t
val linux_driver_domain : t
