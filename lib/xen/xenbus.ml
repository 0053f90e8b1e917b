open Kite_sim

type state =
  | Initialising
  | Init_wait
  | Initialised
  | Connected
  | Closing
  | Closed

let state_to_string = function
  | Initialising -> "1"
  | Init_wait -> "2"
  | Initialised -> "3"
  | Connected -> "4"
  | Closing -> "5"
  | Closed -> "6"

let state_of_string = function
  | "1" -> Some Initialising
  | "2" -> Some Init_wait
  | "3" -> Some Initialised
  | "4" -> Some Connected
  | "5" -> Some Closing
  | "6" -> Some Closed
  | _ -> None

let pp_state ppf s =
  Format.pp_print_string ppf
    (match s with
    | Initialising -> "Initialising"
    | Init_wait -> "InitWait"
    | Initialised -> "Initialised"
    | Connected -> "Connected"
    | Closing -> "Closing"
    | Closed -> "Closed")

(* The xenbus device state machine: which writes are legal edges.  The
   reconnect edges (Closing/Closed -> Initialising) are what frontends
   take when a crashed backend is rebooted; same-state rewrites are
   idempotent and legal. *)
let legal_transition ~from_ ~to_ =
  from_ = to_
  ||
  match (from_, to_) with
  | Initialising, (Init_wait | Initialised) -> true
  | Init_wait, (Initialised | Connected) -> true
  | Initialised, Connected -> true
  | (Initialising | Init_wait | Initialised | Connected), (Closing | Closed)
    ->
      true
  | Closing, Closed -> true
  | (Closing | Closed), Initialising -> true
  | _ -> false

type t = { hv : Hypervisor.t; mutable check : Kite_check.Check.t option }

let create hv = { hv; check = None }
let set_check t c = t.check <- c

let charge t dom =
  Hypervisor.hypercall t.hv dom Hypervisor.Xenstore_op
    ~extra:(Hypervisor.costs t.hv).Costs.xenstore_op

let write t dom ~path value =
  charge t dom;
  Xenstore.write (Hypervisor.store t.hv) ~domid:dom.Domain.id ~path value

let read t dom ~path =
  charge t dom;
  Xenstore.read (Hypervisor.store t.hv) ~path

let read_int t dom ~path =
  match read t dom ~path with
  | Some s -> int_of_string_opt s
  | None -> None

let watch t dom ~path ~token callback =
  charge t dom;
  let engine = Hypervisor.engine t.hv in
  let latency = (Hypervisor.costs t.hv).Costs.xenstore_op in
  Xenstore.watch (Hypervisor.store t.hv) ~path ~token
    (fun ~path ~token ->
      ignore
        (Engine.schedule_after engine latency (fun () ->
             callback ~path ~token)))

let unwatch t id = Xenstore.unwatch (Hypervisor.store t.hv) id

let state_name s = Format.asprintf "%a" pp_state s

let switch_state t dom ~path st =
  let state_path = path ^ "/state" in
  let store = Hypervisor.store t.hv in
  (match Xenstore.read store ~path:state_path with
  | Some cur -> (
      match state_of_string cur with
      | Some from_ when not (legal_transition ~from_ ~to_:st) -> (
          match t.check with
          | Some c ->
              Kite_check.Check.xenbus_bad_transition c ~path:state_path
                ~from_:(state_name from_) ~to_:(state_name st)
          | None -> ())
      | Some _ | None -> ())
  | None -> ());
  let target = state_to_string st in
  (* A state write is the one xenstore update drivers must not lose: the
     peer's whole handshake hangs on it.  Model the xenbus client's
     synchronous-ack discipline by reading back and retrying (bounded),
     which is what rides out injected write loss. *)
  let rec attempt n =
    write t dom ~path:state_path target;
    if Xenstore.read store ~path:state_path <> Some target && n < 3 then
      attempt (n + 1)
  in
  attempt 0

let read_state t dom ~path =
  match read t dom ~path:(path ^ "/state") with
  | Some s -> (
      match state_of_string s with
      | Some st -> st
      | None ->
          (* Report the protocol violation instead of masking it; the
             caller still sees Closed, the safe interpretation. *)
          (match t.check with
          | Some c ->
              Kite_check.Check.xenbus_bad_state c ~path:(path ^ "/state")
                ~value:s
          | None -> ());
          Closed)
  | None -> Closed

let wait_for_state t dom ~path target =
  let cond = Condition.create () in
  let store = Hypervisor.store t.hv in
  let state_path = path ^ "/state" in
  let current () =
    match Xenstore.read store ~path:state_path with
    | Some s -> state_of_string s
    | None -> None
  in
  if current () = Some target then ()
  else begin
    let wid =
      watch t dom ~path:state_path ~token:"wait_for_state"
        (fun ~path:_ ~token:_ ->
          if current () = Some target then Condition.broadcast cond)
    in
    (* Re-poll on a coarse timer as well as on the watch: a lost watch
       event must delay the handshake, not wedge it. *)
    let rec loop () =
      if current () <> Some target then begin
        (match Condition.timed_wait cond (Time.ms 100) with
        | `Signaled | `Timeout -> ());
        loop ()
      end
    in
    loop ();
    unwatch t wid
  end

let guard_peer_state t dom ~path ~on_illegal =
  let store = Hypervisor.store t.hv in
  let state_path = path ^ "/state" in
  (* Track the last *accepted* state ourselves: the peer owns the node
     and can write anything into it, so the node's current value is not
     evidence of a legal history.  Parse raw store values here rather
     than via [read_state] — an unparsable value from a hostile peer is
     the peer's fault to report, not a model error. *)
  let last =
    ref
      (match Xenstore.read store ~path:state_path with
      | Some s -> state_of_string s
      | None -> None)
  in
  watch t dom ~path:state_path ~token:"guard-peer-state"
    (fun ~path:_ ~token:_ ->
      match Xenstore.read store ~path:state_path with
      | None -> ()  (* node removed: device teardown, not a transition *)
      | Some raw -> (
          match state_of_string raw with
          | None ->
              on_illegal
                ~from_:
                  (match !last with
                  | Some s -> state_name s
                  | None -> "(none)")
                ~to_:(Printf.sprintf "%S" raw)
          | Some st -> (
              match !last with
              | Some from_ when not (legal_transition ~from_ ~to_:st) ->
                  (* Do not follow the peer into the bogus state: [last]
                     keeps the pre-jump value, so the observer's view of
                     the handshake stays legal. *)
                  on_illegal ~from_:(state_name from_) ~to_:(state_name st)
              | _ -> last := Some st)))

let backend_path ~backend ~frontend ~ty ~devid =
  Printf.sprintf "/local/domain/%d/backend/%s/%d/%d" backend.Domain.id ty
    frontend.Domain.id devid

let frontend_path ~frontend ~ty ~devid =
  Printf.sprintf "/local/domain/%d/device/%s/%d" frontend.Domain.id ty devid
