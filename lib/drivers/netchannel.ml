type tx_request = {
  tx_id : int;
  tx_gref : Kite_xen.Grant_table.ref_;
  tx_len : int;
}

type tx_response = { tx_rsp_id : int; tx_status : int }

type rx_request = { rx_id : int; rx_gref : Kite_xen.Grant_table.ref_ }

type rx_response = { rx_rsp_id : int; rx_len : int; rx_status : int }

let status_ok = 0
let status_error = -1

type tx_ring = (tx_request, tx_response) Kite_xen.Ring.t
type rx_ring = (rx_request, rx_response) Kite_xen.Ring.t

let ring_order = 8

include Xenif.Mq

(* Flow steering: FNV-1a over the frame's first 40 bytes (covers the
   Ethernet + IP + transport headers), reduced mod the queue count.
   Deterministic, so one flow always lands on one queue and ordering
   within a flow is preserved. *)
let flow_hash frame nqueues =
  if nqueues <= 1 then 0
  else begin
    let n = min 40 (Bytes.length frame) in
    let h = ref 0x811c9dc5 in
    for i = 0 to n - 1 do
      h := !h lxor Char.code (Bytes.get frame i);
      h := !h * 0x01000193 land 0x3fffffff
    done;
    !h mod nqueues
  end

type shared = Tx of tx_ring | Rx of rx_ring

type registry = shared Xenif.registry

let registry = Xenif.registry
let share_tx r ~owner ring = Xenif.share r ~owner (Tx ring)
let share_rx r ~owner ring = Xenif.share r ~owner (Rx ring)
let owner_of = Xenif.owner_of

let map_tx r id =
  match Xenif.find r id with Some (Tx ring) -> ring | _ -> raise Not_found

let map_rx r id =
  match Xenif.find r id with Some (Rx ring) -> ring | _ -> raise Not_found
