exception Permission_denied of string

type node = {
  mutable value : string;
  mutable owner : int;
  children : (string, node) Hashtbl.t;
}

type watch = {
  id : int;
  wpath : string list;
  token : string;
  callback : path:string -> token:string -> unit;
}

type watch_id = int

type t = {
  root : node;
  mutable watches : watch list;
  mutable next_watch : int;
  mutable next_tx : int;
  mutable gen : int;
  mutable shape : int;
  mutable check : Kite_check.Check.t option;
  mutable fault : Kite_fault.Fault.t option;
  mutable race : Kite_race.Race.t option;
}

let make_node owner = { value = ""; owner; children = Hashtbl.create 4 }

let create () =
  {
    root = make_node 0;
    watches = [];
    next_watch = 0;
    next_tx = 0;
    gen = 0;
    shape = 0;
    check = None;
    fault = None;
    race = None;
  }

let set_check t c = t.check <- c
let set_fault t f = t.fault <- f
let set_race t r = t.race <- r

let split_path p =
  if p = "" then invalid_arg "Xenstore.split_path: empty path";
  String.split_on_char '/' p |> List.filter (fun s -> s <> "")

let join_path segs = "/" ^ String.concat "/" segs

let rec find node = function
  | [] -> Some node
  | seg :: rest -> (
      match Hashtbl.find_opt node.children seg with
      | Some child -> find child rest
      | None -> None)

let find_path t path = find t.root (split_path path)

(* Permission model: domain 0 is all-powerful; any other domain may only
   mutate at or below a node it owns. *)
let rec may_write node domid = function
  | [] -> domid = 0 || node.owner = domid
  | seg :: rest -> (
      domid = 0 || node.owner = domid
      ||
      match Hashtbl.find_opt node.children seg with
      | Some child -> may_write child domid rest
      | None -> false)

let is_prefix prefix path =
  let rec go = function
    | [], _ -> true
    | _, [] -> false
    | a :: pa, b :: pb -> a = b && go (pa, pb)
  in
  go (prefix, path)

let deliver_watch t w ~path =
  match t.fault with
  | Some f
    when Kite_fault.Fault.fire f Kite_fault.Fault.Xenstore_watch ~key:path ->
      (* Injected watch-event loss: the store mutated but this client is
         never told.  Pollers (Xenbus.wait_for_state) recover. *)
      ()
  | _ -> w.callback ~path ~token:w.token

let fire_watches t segs =
  let path = join_path segs in
  List.iter
    (fun w -> if is_prefix w.wpath segs then deliver_watch t w ~path)
    (* Snapshot so callbacks adding/removing watches are safe. *)
    (List.rev t.watches)

(* Removing a subtree also fires watches registered *below* the removed
   node, as xenstored does: a frontend watching .../backend/vbd/1/0/state
   must learn that an ancestor (the whole backend domain home) vanished. *)
let fire_watches_below t segs =
  List.iter
    (fun w ->
      if is_prefix segs w.wpath && List.length w.wpath > List.length segs
      then deliver_watch t w ~path:(join_path w.wpath))
    (List.rev t.watches)

(* Walk to [segs], creating intermediate nodes owned by the nearest
   existing ancestor's owner. *)
let rec ensure t node = function
  | [] -> node
  | seg :: rest ->
      let child =
        match Hashtbl.find_opt node.children seg with
        | Some c -> c
        | None ->
            let c = make_node node.owner in
            Hashtbl.add node.children seg c;
            t.shape <- t.shape + 1;
            c
      in
      ensure t child rest

let check_write t domid segs =
  if not (may_write t.root domid segs) then begin
    (match t.check with
    | Some c ->
        Kite_check.Check.write_denied c ~domid ~path:(join_path segs)
    | None -> ());
    raise
      (Permission_denied
         (Printf.sprintf "domain %d cannot write %s" domid (join_path segs)))
  end

let write_segs t ~domid segs value =
  check_write t domid segs;
  match t.fault with
  | Some f
    when Kite_fault.Fault.fire f Kite_fault.Fault.Xenstore_write
           ~key:(join_path segs) ->
      (* Injected write loss: the request is dropped before touching the
         tree — no mutation, no generation bump, no watch fires.  Writers
         that must not lose state (Xenbus.switch_state) read back and
         retry. *)
      ()
  | _ ->
      (match t.race with
      | Some r -> Kite_race.Race.xs_write r ~path:(join_path segs)
      | None -> ());
      let node = ensure t t.root segs in
      node.value <- value;
      t.gen <- t.gen + 1;
      fire_watches t segs

let write t ~domid ~path value = write_segs t ~domid (split_path path) value

let read t ~path =
  (match t.race with
  | Some r -> Kite_race.Race.xs_read r ~path:(join_path (split_path path))
  | None -> ());
  match find_path t path with Some n -> Some n.value | None -> None

let mkdir t ~domid ~path =
  let segs = split_path path in
  check_write t domid segs;
  (match t.race with
  | Some r -> Kite_race.Race.xs_write r ~path:(join_path segs)
  | None -> ());
  ignore (ensure t t.root segs);
  t.gen <- t.gen + 1;
  fire_watches t segs

let rm t ~domid ~path =
  let segs = split_path path in
  match segs with
  | [] -> invalid_arg "Xenstore.rm: cannot remove root"
  | _ ->
      if find t.root segs <> None then begin
        check_write t domid segs;
        (match t.race with
        | Some r -> Kite_race.Race.xs_write r ~path:(join_path segs)
        | None -> ());
        let parent_segs = List.filteri (fun i _ -> i < List.length segs - 1) segs in
        let leaf = List.nth segs (List.length segs - 1) in
        (match find t.root parent_segs with
        | Some parent -> Hashtbl.remove parent.children leaf
        | None -> ());
        t.gen <- t.gen + 1;
        t.shape <- t.shape + 1;
        fire_watches t segs;
        fire_watches_below t segs
      end

let exists t ~path = find_path t path <> None

let directory t ~path =
  match find_path t path with
  | None -> []
  | Some n ->
      Hashtbl.fold (fun k _ acc -> k :: acc) n.children []
      |> List.sort String.compare

let set_owner t ~path ~domid =
  match find_path t path with
  | Some n ->
      let rec set n =
        n.owner <- domid;
        Hashtbl.iter (fun _ c -> set c) n.children
      in
      set n
  | None -> ()

let generation t = t.gen
let shape_generation t = t.shape

let watch t ~path ~token callback =
  let id = t.next_watch in
  t.next_watch <- t.next_watch + 1;
  (match t.check with
  | Some c -> Kite_check.Check.watch_added c ~id ~path ~token
  | None -> ());
  let w = { id; wpath = split_path path; token; callback } in
  t.watches <- w :: t.watches;
  (* Xen fires a watch once immediately upon registration. *)
  callback ~path ~token;
  id

let unwatch t id =
  (match t.check with
  | Some c -> Kite_check.Check.watch_removed c ~id
  | None -> ());
  t.watches <- List.filter (fun w -> w.id <> id) t.watches

(* ------------------------------------------------------------------ *)
(* Transactions                                                        *)
(* ------------------------------------------------------------------ *)

type tx = {
  store : t;
  tx_id : int;
  start_gen : int;
  mutable ops : (int * string list * string) list;  (* domid, path, value; reversed *)
  mutable aborted : bool;
}

let tx_start t =
  let tx_id = t.next_tx in
  t.next_tx <- t.next_tx + 1;
  (match t.check with
  | Some c -> Kite_check.Check.tx_opened c ~id:tx_id
  | None -> ());
  { store = t; tx_id; start_gen = t.gen; ops = []; aborted = false }

let tx_closed tx =
  match tx.store.check with
  | Some c -> Kite_check.Check.tx_closed c ~id:tx.tx_id
  | None -> ()

let tx_write tx ~domid ~path value =
  if tx.aborted then invalid_arg "Xenstore.tx_write: aborted transaction";
  tx.ops <- (domid, split_path path, value) :: tx.ops

let tx_read tx ~path =
  let segs = split_path path in
  (* Own buffered writes win over the store. *)
  let rec search = function
    | [] -> read tx.store ~path
    | (_, s, v) :: rest -> if s = segs then Some v else search rest
  in
  search tx.ops

let tx_commit tx =
  if tx.aborted then invalid_arg "Xenstore.tx_commit: aborted transaction";
  (* A conflicted transaction ends too: the caller restarts with a fresh
     [tx_start], like real xenstored's EAGAIN. *)
  tx_closed tx;
  if tx.store.gen <> tx.start_gen && tx.ops <> [] then `Conflict
  else begin
    List.iter
      (fun (domid, segs, v) -> write_segs tx.store ~domid segs v)
      (List.rev tx.ops);
    tx.aborted <- true;
    `Committed
  end

let tx_abort tx =
  if not tx.aborted then tx_closed tx;
  tx.aborted <- true
