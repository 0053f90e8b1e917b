open Kite_sim

type action = Throttle | Detach | Offline

let action_name = function
  | Throttle -> "throttle"
  | Detach -> "detach"
  | Offline -> "offline"

(* Cumulative fault counts at which each escalation fires. *)
let throttle_after = 1
let detach_after = 2
let offline_after = 3
let throttle_penalty = Time.us 100

type t = { mutable count : int; mutable level : int }

let create () = { count = 0; level = 0 }

let note t attack =
  t.count <- t.count + 1;
  if Guest_fault.severe attack && t.level < 3 then begin
    t.level <- 3;
    Some Offline
  end
  else if t.count >= offline_after && t.level < 3 then begin
    t.level <- 3;
    Some Offline
  end
  else if t.count >= detach_after && t.level < 2 then begin
    t.level <- 2;
    Some Detach
  end
  else if t.count >= throttle_after && t.level < 1 then begin
    t.level <- 1;
    Some Throttle
  end
  else None

let level t = t.level
let throttled t = t.level >= 1
let faults t = t.count
