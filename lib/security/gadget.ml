type counts = (Decoder.category * int) list

(* Walk forward from [start]; succeed if we land exactly on the RET at
   [ret_off] within the instruction budget.  Returns the category of the
   final pre-RET instruction. *)
let rec walk code start ret_off budget last_cat =
  if start = ret_off then Some last_cat
  else if start > ret_off || budget = 0 then None
  else
    match Decoder.decode code start with
    | None -> None
    | Some insn ->
        walk code (start + insn.Decoder.length) ret_off (budget - 1)
          (Some insn.Decoder.category)

(* How many bytes before a RET a gadget may start. *)
let max_back = 20

let scan ?(max_insns = 5) code =
  let tbl = Hashtbl.create 16 in
  let bump cat =
    let r =
      match Hashtbl.find_opt tbl cat with
      | Some r -> r
      | None ->
          let r = ref 0 in
          Hashtbl.add tbl cat r;
          r
    in
    incr r
  in
  let n = Bytes.length code in
  for off = 0 to n - 1 do
    if Decoder.is_ret code off then begin
      (* The bare RET itself is a (trivial) gadget. *)
      bump Decoder.Ret;
      for start = max 0 (off - max_back) to off - 1 do
        match walk code start off max_insns None with
        | Some (Some cat) -> bump cat
        | Some None | None -> ()
      done
    end
  done;
  List.map
    (fun cat ->
      (cat, match Hashtbl.find_opt tbl cat with Some r -> !r | None -> 0))
    Decoder.all_categories

let total counts = List.fold_left (fun acc (_, n) -> acc + n) 0 counts
