open Kite_sim

type t = {
  hypercall_base : Time.span;
  evtchn_send : Time.span;
  interrupt_latency : Time.span;
  grant_map : Time.span;
  grant_unmap : Time.span;
  grant_copy_base : Time.span;
  grant_copy_per_kb : Time.span;
  xenstore_op : Time.span;
  memcpy_per_kb : Time.span;
}

let default =
  {
    hypercall_base = Time.ns 300;
    evtchn_send = Time.ns 500;
    interrupt_latency = Time.us 4;
    grant_map = Time.ns 900;
    grant_unmap = Time.ns 700;
    grant_copy_base = Time.ns 450;
    grant_copy_per_kb = Time.ns 150;
    xenstore_op = Time.us 30;
    memcpy_per_kb = Time.ns 60;
  }
