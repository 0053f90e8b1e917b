module Mq = struct
  let key_max_queues = "multi-queue-max-queues"
  let key_num_queues = "multi-queue-num-queues"
  let key_max_ring_page_order = "max-ring-page-order"
  let key_ring_page_order = "multi-ring-page-order"
  let queue_key q key = Printf.sprintf "queue-%d/%s" q key
end

let key ~mq q k = if mq then Mq.queue_key q k else k

type 'a registry = {
  mutable next : int;
  rings : ('a * int) Kite_sim.Int_table.t;
}

let registry () = { next = 1; rings = Kite_sim.Int_table.create 16 }

let share r ~owner ring =
  let id = r.next in
  r.next <- r.next + 1;
  Kite_sim.Int_table.add r.rings id (ring, owner);
  id

let find r id = Option.map fst (Kite_sim.Int_table.find_opt r.rings id)
let owner_of r id = Option.map snd (Kite_sim.Int_table.find_opt r.rings id)
