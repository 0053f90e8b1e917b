type t = {
  name : string;
  mutable ports : Netdev.t list;
  fdb : Netdev.t Macaddr.Table.t;  (* forwarding database *)
  mutable forwarded : int;
  mutable flooded : int;
}

let create ~name =
  {
    name;
    ports = [];
    fdb = Macaddr.Table.create 16;
    forwarded = 0;
    flooded = 0;
  }

let name t = t.name

let handle_frame t ingress frame =
  match Ethernet.decode frame with
  | None -> ()
  | Some (h, _) ->
      (* Learn the sender's location. *)
      Macaddr.Table.replace t.fdb h.Ethernet.src ingress;
      let flood () =
        t.flooded <- t.flooded + 1;
        List.iter
          (fun p -> if p != ingress then Netdev.transmit p frame)
          t.ports
      in
      if Macaddr.is_broadcast h.Ethernet.dst then flood ()
      else
        match Macaddr.Table.find t.fdb h.Ethernet.dst with
        | port when port != ingress ->
            t.forwarded <- t.forwarded + 1;
            Netdev.transmit port frame
        | _ -> ()  (* destination is behind the ingress port *)
        | exception Not_found -> flood ()

let add_port t dev =
  if List.memq dev t.ports then
    invalid_arg
      (Printf.sprintf "Bridge.add_port: %s already in %s" (Netdev.name dev)
         t.name);
  t.ports <- t.ports @ [ dev ];
  Netdev.set_rx dev (fun frame -> handle_frame t dev frame);
  Netdev.set_up dev true

let remove_port t dev =
  t.ports <- List.filter (fun p -> p != dev) t.ports;
  Macaddr.Table.filter_map_inplace
    (fun _ port -> if port == dev then None else Some port)
    t.fdb

let ports t = t.ports
let forwarded t = t.forwarded
let flooded t = t.flooded
let lookup t mac = Macaddr.Table.find_opt t.fdb mac
