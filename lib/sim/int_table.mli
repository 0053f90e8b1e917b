(** Hash tables keyed by an int the simulator allocates: grant
    references, event-channel ports, ring and request ids, socket ports,
    packed addresses.

    The hash is the key itself, so a lookup neither calls the runtime's
    generic hash nor compares polymorphically, and consecutive keys fill
    consecutive buckets.  Iteration order differs from the polymorphic
    [Hashtbl]'s (it follows the key modulo the bucket count), so no
    output may depend on it. *)

include Hashtbl.S with type key = int
