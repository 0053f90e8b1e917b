
open Kite_sim

exception Grant_error of string

(* An entry is mapped by its grantee or not while it lives, and ended
   once its granter ends it or dies; a mapped entry cannot be ended. *)
type state = Granted | Mapped | Ended

type entry = {
  gref : int;
  granter : int;
  grantee : int;
  page : Page.t;
  writable : bool;
  mutable state : state;
}

type ref_ = int

type t = {
  hv : Hypervisor.t;
  entries : entry Int_table.t;
  mutable next_ref : int;
  mutable maps : int;
  mutable unmaps : int;
  mutable copies : int;
  mutable check : Kite_check.Check.t option;
  mutable race : Kite_race.Race.t option;
}

let create hv =
  {
    hv;
    entries = Int_table.create 64;
    next_ref = 8;
    maps = 0;
    unmaps = 0;
    copies = 0;
    check = None;
    race = None;
  }

let set_check t c = t.check <- c
let set_race t r = t.race <- r

(* Grant-entry state (mapped, ended) as an instrumented location.
   [revoke_domain] deliberately bypasses these hooks: domain destruction
   is an exogenous event outside the happens-before model, like pulling
   the power on real hardware. *)
let race_entry t r site =
  match t.race with
  | Some d ->
      Kite_race.Race.write_acc d ~loc:("grant:" ^ string_of_int r) ~site
  | None -> ()

let grant_access t ~granter ~grantee ~page ~writable =
  let r = t.next_ref in
  t.next_ref <- t.next_ref + 1;
  (match t.check with
  | Some c ->
      Kite_check.Check.grant_granted c ~gref:r ~granter:granter.Domain.id
        ~grantee:grantee.Domain.id
  | None -> ());
  race_entry t r "Grant_table.grant_access";
  Int_table.add t.entries r
    {
      gref = r;
      granter = granter.Domain.id;
      grantee = grantee.Domain.id;
      page;
      writable;
      state = Granted;
    };
  r

let get t r =
  match Int_table.find t.entries r with
  | e -> e
  | exception Not_found ->
      raise (Grant_error (Printf.sprintf "bad grant reference %d" r))

let end_access t ~granter r =
  (match t.check with
  | Some c -> Kite_check.Check.grant_end c ~gref:r ~granter:granter.Domain.id
  | None -> ());
  race_entry t r "Grant_table.end_access";
  let e = get t r in
  if e.granter <> granter.Domain.id then
    raise (Grant_error (Printf.sprintf "grant %d not owned by domain %d" r
                          granter.Domain.id));
  if e.state = Mapped then
    raise (Grant_error (Printf.sprintf "grant %d is still mapped" r));
  e.state <- Ended;
  Int_table.remove t.entries r

let check_grantee e r dom =
  if e.grantee <> dom.Domain.id then
    raise
      (Grant_error
         (Printf.sprintf "grant %d not for domain %d" r dom.Domain.id))

(* Mapping a page that this domain already has mapped is free: this is the
   persistent-reference fast path.  Kite's blkback looks the reference up
   in its own table first; modelling it here keeps the accounting honest
   even if a driver calls [map] twice.  The checker and race hooks fire
   once per reference, before the reference is checked. *)
let map_hooks t ~grantee r =
  (match t.check with
  | Some c -> Kite_check.Check.grant_map c ~gref:r ~grantee:grantee.Domain.id
  | None -> ());
  race_entry t r "Grant_table.map"

let unmap_hooks t ~grantee r =
  (match t.check with
  | Some c ->
      Kite_check.Check.grant_unmap c ~gref:r ~grantee:grantee.Domain.id
  | None -> ());
  race_entry t r "Grant_table.unmap"

(* An entry its caller found earlier may have been ended or revoked
   since: it then fails as its reference would. *)
let check_live e =
  if e.state = Ended then
    raise (Grant_error (Printf.sprintf "bad grant reference %d" e.gref))

let map_checked ~grantee t e =
  check_live e;
  check_grantee e e.gref grantee;
  let fresh = e.state = Granted in
  e.state <- Mapped;
  if fresh then t.maps <- t.maps + 1;
  fresh

let unmap_checked ~grantee t e =
  check_live e;
  check_grantee e e.gref grantee;
  if e.state <> Mapped then
    raise (Grant_error (Printf.sprintf "grant %d is not mapped" e.gref));
  e.state <- Granted;
  t.unmaps <- t.unmaps + 1

let charge_map t ~grantee fresh =
  if fresh > 0 then
    Hypervisor.hypercall t.hv grantee Hypervisor.Grant_map
      ~extra:(fresh * (Hypervisor.costs t.hv).Costs.grant_map)

let charge_unmap t ~grantee n =
  if n > 0 then
    Hypervisor.hypercall t.hv grantee Hypervisor.Grant_unmap
      ~extra:(n * (Hypervisor.costs t.hv).Costs.grant_unmap)

let map t ~grantee r =
  map_hooks t ~grantee r;
  let e = get t r in
  charge_map t ~grantee (Bool.to_int (map_checked ~grantee t e));
  e.page

let map_many t ~grantee entries =
  let fresh = ref 0 in
  for k = 0 to Array.length entries - 1 do
    let e = entries.(k) in
    map_hooks t ~grantee e.gref;
    if map_checked ~grantee t e then incr fresh
  done;
  charge_map t ~grantee !fresh

let unmap t ~grantee r =
  unmap_hooks t ~grantee r;
  unmap_checked ~grantee t (get t r);
  charge_unmap t ~grantee 1

let unmap_many t ~grantee entries =
  for k = 0 to Array.length entries - 1 do
    let e = entries.(k) in
    unmap_hooks t ~grantee e.gref;
    unmap_checked ~grantee t e
  done;
  charge_unmap t ~grantee (Array.length entries)

let copy_cost t len =
  let costs = Hypervisor.costs t.hv in
  costs.Costs.grant_copy_base
  + (len + 1023) / 1024 * costs.Costs.grant_copy_per_kb

(* Validation shared by the single and batched copy entry points.  The
   per-reference checker hook fires here so a batched hypercall still
   audits every reference it touches.  The singular forms look the
   reference up here ([copy_entry]); the batched forms take the entries
   their caller found when it validated the descriptors ([find]). *)
let copy_hooks t r =
  (match t.check with
  | Some c -> Kite_check.Check.grant_copy c ~gref:r
  | None -> ());
  match t.race with
  | Some d ->
      Kite_race.Race.read_acc d ~loc:("grant:" ^ string_of_int r)
        ~site:"Grant_table.copy"
  | None -> ()

let copy_check ~caller ~for_write e =
  let r = e.gref in
  if e.grantee <> caller.Domain.id && e.granter <> caller.Domain.id then
    raise (Grant_error (Printf.sprintf "grant %d not visible to domain %d" r
                          caller.Domain.id));
  if for_write && not e.writable then
    raise (Grant_error (Printf.sprintf "grant %d is read-only" r))

let copy_entry t ~caller ~for_write r =
  copy_hooks t r;
  let e = get t r in
  copy_check ~caller ~for_write e;
  e

let check_found t ~caller ~for_write e =
  copy_hooks t e.gref;
  copy_check ~caller ~for_write e

let copy_to_granted t ~caller r ~off data =
  let e = copy_entry t ~caller ~for_write:true r in
  Hypervisor.hypercall t.hv caller Hypervisor.Grant_copy
    ~extra:(copy_cost t (Bytes.length data));
  t.copies <- t.copies + 1;
  Page.write e.page ~off data

let copy_from_granted t ~caller r ~off ~len =
  let e = copy_entry t ~caller ~for_write:false r in
  Hypervisor.hypercall t.hv caller Hypervisor.Grant_copy
    ~extra:(copy_cost t len);
  t.copies <- t.copies + 1;
  Page.read e.page ~off ~len

(* Batched GNTTABOP_copy: like real gnttab_batch_copy, every op in the
   list rides one hypercall trap, so the 300ns trap cost is amortized
   over the batch while the per-kb copy work still adds up.  A 1-op
   batch costs exactly what the singular form does. *)
let copy_to_granted_many t ~caller ops =
  match ops with
  | [] -> ()
  | ops ->
      List.iter (fun (e, _, _) -> check_found t ~caller ~for_write:true e) ops;
      let extra =
        List.fold_left
          (fun acc (_, _, data) -> acc + copy_cost t (Bytes.length data))
          0 ops
      in
      Hypervisor.hypercall t.hv caller Hypervisor.Grant_copy ~extra;
      List.iter
        (fun (e, off, data) ->
          t.copies <- t.copies + 1;
          Page.write e.page ~off data)
        ops

let copy_from_granted_many t ~caller ops =
  match ops with
  | [] -> []
  | ops ->
      List.iter (fun (e, _, _) -> check_found t ~caller ~for_write:false e) ops;
      let extra =
        List.fold_left (fun acc (_, _, len) -> acc + copy_cost t len) 0 ops
      in
      Hypervisor.hypercall t.hv caller Hypervisor.Grant_copy ~extra;
      List.map
        (fun (e, off, len) ->
          t.copies <- t.copies + 1;
          Page.read e.page ~off ~len)
        ops

let revoke_domain t ~domid =
  (* Domain destruction.  Two sweeps, in an order that keeps the
     checker's shadow state consistent:
     - every entry the dead domain had *mapped* is forcibly unmapped (the
       hypervisor tears down its page tables), so the surviving granter's
       [end_access] succeeds afterwards;
     - every entry the dead domain *granted* disappears with its grant
       table. *)
  let granted = ref [] in
  Int_table.iter
    (fun r e ->
      if e.grantee = domid && e.state = Mapped then begin
        (match t.check with
        | Some c -> Kite_check.Check.grant_unmap c ~gref:r ~grantee:domid
        | None -> ());
        e.state <- Granted
      end;
      if e.granter = domid then granted := r :: !granted)
    t.entries;
  List.iter
    (fun r ->
      (match Int_table.find_opt t.entries r with
      | Some e ->
          (* The peer's mapping dies with the granted frame. *)
          (if e.state = Mapped then
             match t.check with
             | Some c ->
                 Kite_check.Check.grant_unmap c ~gref:r ~grantee:e.grantee
             | None -> ());
          e.state <- Ended
      | None -> ());
      (match t.check with
      | Some c -> Kite_check.Check.grant_end c ~gref:r ~granter:domid
      | None -> ());
      Int_table.remove t.entries r)
    (List.sort Int.compare !granted)

let owner t r =
  match Int_table.find t.entries r with
  | e -> Some e.granter
  | exception Not_found -> None

let find t r = Int_table.find_opt t.entries r
let gref e = e.gref
let granter e = e.granter
let grantee e = e.grantee
let writable e = e.writable
let page e = e.page
let live e = e.state <> Ended

(* Pooled allocation: a per-queue set of pre-granted pages.  Frontends
   that repost the same buffers forever (netfront Rx, blkfront
   persistent data pages) take from the pool instead of granting a
   fresh page per post, and put buffers back instead of revoking — the
   grant survives reconnects, which is what makes multi-queue
   re-handshakes cheap.  [pool_drain] revokes everything idle so the
   end-of-run leak audit stays clean. *)
type pool = {
  pt : t;
  pool_granter : Domain.t;
  pool_grantee : Domain.t;
  pool_writable : bool;
  mutable pool_free : (ref_ * Page.t) list;
}

let pool t ~granter ~grantee ~writable =
  {
    pt = t;
    pool_granter = granter;
    pool_grantee = grantee;
    pool_writable = writable;
    pool_free = [];
  }

let pool_take p =
  match p.pool_free with
  | (r, pg) :: rest ->
      p.pool_free <- rest;
      (r, pg)
  | [] ->
      let pg = Page.alloc () in
      let r =
        grant_access p.pt ~granter:p.pool_granter ~grantee:p.pool_grantee
          ~page:pg ~writable:p.pool_writable
      in
      (r, pg)

let pool_put p (r, pg) = p.pool_free <- (r, pg) :: p.pool_free

let pool_drain p =
  List.iter (fun (r, _) -> end_access p.pt ~granter:p.pool_granter r)
    p.pool_free;
  p.pool_free <- []

let active_grants t = Int_table.length t.entries
let map_count t = t.maps
let unmap_count t = t.unmaps
let copy_count t = t.copies
