type t = {
  name : string;
  mtu : int;
  transmit_fn : Bytes.t -> unit;
  mutable rx : (Bytes.t -> unit) option;
  mutable up : bool;
  mutable tx_count : int;
  mutable rx_count : int;
  mutable tap : ([ `Tx | `Rx ] -> Bytes.t -> unit) option;
}

let create ~name ~transmit () =
  {
    name;
    mtu = 1500;
    transmit_fn = transmit;
    rx = None;
    up = false;
    tx_count = 0;
    rx_count = 0;
    tap = None;
  }

let name t = t.name
let mtu t = t.mtu
let set_up t v = t.up <- v
let set_rx t f = t.rx <- Some f

let set_tap t f = t.tap <- Some f
let clear_tap t = t.tap <- None

let transmit t frame =
  if t.up && Bytes.length frame <= t.mtu + Ethernet.header_size then begin
    t.tx_count <- t.tx_count + 1;
    (match t.tap with Some f -> f `Tx frame | None -> ());
    t.transmit_fn frame
  end

let deliver t frame =
  if t.up then begin
    t.rx_count <- t.rx_count + 1;
    (match t.tap with Some f -> f `Rx frame | None -> ());
    match t.rx with Some f -> f frame | None -> ()
  end

let tx_count t = t.tx_count
let rx_count t = t.rx_count

let pipe ~name_a ~name_b =
  (* Tie the knot with forward references. *)
  let b_ref = ref None in
  let a =
    create ~name:name_a
      ~transmit:(fun frame ->
        match !b_ref with Some b -> deliver b frame | None -> ())
      ()
  in
  let b =
    create ~name:name_b ~transmit:(fun frame -> deliver a frame) ()
  in
  b_ref := Some b;
  (a, b)
