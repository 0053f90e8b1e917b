open Kite_sim

type spec = {
  loss : float;
  reorder : float;
  delay : Time.span;
  jitter : Time.span;
}

let none = { loss = 0.0; reorder = 0.0; delay = 0; jitter = 0 }

let span_of_string s =
  let s = String.trim s in
  let num_suffix suffix =
    if String.length s > String.length suffix
       && String.sub s (String.length s - String.length suffix)
            (String.length suffix)
          = suffix
    then
      float_of_string_opt
        (String.sub s 0 (String.length s - String.length suffix))
    else None
  in
  (* Longest suffix first so "us" is not read as "s". *)
  match num_suffix "ns" with
  | Some v -> Some (int_of_float v)
  | None -> (
      match num_suffix "us" with
      | Some v -> Some (int_of_float (v *. 1e3))
      | None -> (
          match num_suffix "ms" with
          | Some v -> Some (int_of_float (v *. 1e6))
          | None -> (
              match num_suffix "s" with
              | Some v -> Some (int_of_float (v *. 1e9))
              | None -> Option.map int_of_float (float_of_string_opt s))))

let spec_of_string str =
  let parts =
    String.split_on_char ',' str |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let rec go acc = function
    | [] -> Ok acc
    | part :: rest -> (
        match String.index_opt part '=' with
        | None -> Error (Printf.sprintf "impair: expected key=value in %S" part)
        | Some i -> (
            let key = String.sub part 0 i in
            let v = String.sub part (i + 1) (String.length part - i - 1) in
            let float_field f =
              match float_of_string_opt (String.trim v) with
              | Some x when x >= 0.0 && x <= 1.0 -> go (f x) rest
              | _ ->
                  Error
                    (Printf.sprintf "impair: %s wants a probability, got %S" key
                       v)
            in
            let span_field f =
              match span_of_string v with
              | Some x when x >= 0 -> go (f x) rest
              | _ ->
                  Error
                    (Printf.sprintf "impair: %s wants a duration, got %S" key v)
            in
            match key with
            | "loss" -> float_field (fun x -> { acc with loss = x })
            | "reorder" -> float_field (fun x -> { acc with reorder = x })
            | "delay" -> span_field (fun x -> { acc with delay = x })
            | "jitter" -> span_field (fun x -> { acc with jitter = x })
            | _ -> Error (Printf.sprintf "impair: unknown key %S" key)))
  in
  go none parts

type t = { spec : spec; rng : Rng.t; mutable pending : bool }

let create ?(seed = 1) spec = { spec; rng = Rng.create seed; pending = false }

type verdict = Deliver of Time.span | Hold | Drop

let extra_delay t =
  let s = t.spec in
  if s.jitter > 0 then s.delay + Rng.int t.rng s.jitter else s.delay

let frame t =
  let s = t.spec in
  if s.loss > 0.0 && Rng.float t.rng 1.0 < s.loss then Drop
  else if (not t.pending) && s.reorder > 0.0 && Rng.float t.rng 1.0 < s.reorder
  then begin
    t.pending <- true;
    Hold
  end
  else Deliver (extra_delay t)

let release t = t.pending <- false
