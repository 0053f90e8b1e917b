(** ROP gadget scanner (Figures 1b and 5).

    Follows the methodology of Follner et al.: every suffix of the
    instruction stream that decodes cleanly into at most [max_insns]
    instructions ending in a RET is a gadget; it is categorized by the
    operation of the instruction immediately preceding the RET (a bare
    RET counts in the Ret category). *)

type counts = (Decoder.category * int) list
(** Per-category gadget counts, in {!Decoder.all_categories} order. *)

val scan : ?max_insns:int -> Bytes.t -> counts
(** [scan code] finds gadgets starting at most 20 bytes before a RET;
    [max_insns] (default 5) bounds a gadget's instruction count. *)

val total : counts -> int
