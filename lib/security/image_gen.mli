(** Synthetic kernel text generator.

    The paper scans real kernel binaries with Ropper; those binaries are
    not available here, so we synthesize instruction streams with an
    x86-like opcode mix and realistic return density, sized per kernel
    configuration.  Generation is deterministic per configuration, so
    gadget counts are stable run-to-run. *)

type kernel_config = {
  config_name : string;
  text_kb : int;  (** size of executable text (kernel + modules) *)
}

val kite : kernel_config
(** The whole Kite unikernel text, ~2.8 MB. *)

val linux_default : kernel_config
(** Default-config kernel, almost no modules (~11 MB text). *)

val all : kernel_config list
(** Figure 5 order: Kite, Default, CentOS, Fedora, Debian, Ubuntu. *)

val generate : kernel_config -> Bytes.t
(** The synthetic text section. *)
