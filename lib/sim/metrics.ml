type t = {
  counters : (string, int ref) Hashtbl.t;
  busy : (string, int ref) Hashtbl.t;
}

let create () = { counters = Hashtbl.create 64; busy = Hashtbl.create 16 }

let cell tbl name =
  match Hashtbl.find_opt tbl name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add tbl name r;
      r

(* A named cell looked up once: per-frame and per-hypercall accounting
   then costs no key string and no hash.  The cell still enters the
   table on its first update, so [names] lists only touched counters. *)
type counter = {
  tbl : (string, int ref) Hashtbl.t;
  key : string;
  mutable cell : int ref;
  mutable bound : bool;  (* [cell] is the table's cell for [key] *)
}

let handle tbl key = { tbl; key; cell = ref 0; bound = false }
let counter t name = handle t.counters name
let busy_counter t name = handle t.busy name

let bump c n =
  if not c.bound then begin
    c.cell <- cell c.tbl c.key;
    c.bound <- true
  end;
  c.cell := !(c.cell) + n

let find tbl name =
  match Hashtbl.find_opt tbl name with Some r -> !r | None -> 0

let count t name = find t.counters name
let busy t name = find t.busy name

let sorted_keys tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort_uniq String.compare

let names t = sorted_keys t.counters
let busy_names t = sorted_keys t.busy
