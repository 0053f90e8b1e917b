exception Fs_error of string

let block_size = 4096
let sectors_per_block = block_size / Blockdev.sector_size

type extent = { start : int; count : int }  (* in blocks *)

type node =
  | File of file
  | Dir of (string, node) Hashtbl.t

and file = { mutable extents : extent list; mutable size : int }

type t = {
  dev : Blockdev.t;
  root : (string, node) Hashtbl.t;
  total_blocks : int;
  mutable next_fit : int;  (* allocation cursor *)
  free : Bytes.t;  (* one byte per block: 0 = free *)
  mutable free_count : int;
  mutable files : int;
}

let free_blocks t = t.free_count
let file_count t = t.files

let format dev =
  let total = dev.Blockdev.capacity_sectors / sectors_per_block in
  {
    dev;
    root = Hashtbl.create 64;
    total_blocks = total;
    next_fit = 0;
    free = Bytes.make total '\000';
    free_count = total;
    files = 0;
  }

let split_path path =
  String.split_on_char '/' path |> List.filter (fun s -> s <> "")

let err fmt = Printf.ksprintf (fun s -> raise (Fs_error s)) fmt

(* Walk to the parent directory of [path]'s leaf. *)
let rec walk_dir dir = function
  | [] -> dir
  | seg :: rest -> (
      match Hashtbl.find_opt dir seg with
      | Some (Dir d) -> walk_dir d rest
      | Some (File _) -> err "%s is a file, not a directory" seg
      | None -> err "no such directory: %s" seg)

let parent_and_leaf t path =
  match List.rev (split_path path) with
  | [] -> err "empty path"
  | leaf :: rev_parents -> (walk_dir t.root (List.rev rev_parents), leaf)

let find_node t path =
  match split_path path with
  | [] -> Some (Dir t.root)
  | segs -> (
      let rec go dir = function
        | [] -> None
        | [ leaf ] -> Hashtbl.find_opt dir leaf
        | seg :: rest -> (
            match Hashtbl.find_opt dir seg with
            | Some (Dir d) -> go d rest
            | Some (File _) | None -> None)
      in
      go t.root segs)

let find_file t path =
  match find_node t path with
  | Some (File f) -> f
  | Some (Dir _) -> err "%s is a directory" path
  | None -> err "no such file: %s" path

(* ------------------------------------------------------------------ *)
(* Block allocation                                                    *)
(* ------------------------------------------------------------------ *)

let mark t b v = Bytes.set t.free b (if v then '\001' else '\000')
let in_use t b = Bytes.get t.free b = '\001'

(* Allocate up to [n] contiguous blocks starting near the cursor; returns
   an extent possibly shorter than requested. *)
let alloc_extent t n =
  if t.free_count = 0 then err "filesystem full";
  let total = t.total_blocks in
  (* Find the first free block from the cursor, wrapping once. *)
  let rec find_free i tried =
    if tried >= total then err "filesystem full"
    else if in_use t (i mod total) then find_free (i + 1) (tried + 1)
    else i mod total
  in
  let start = find_free t.next_fit 0 in
  let rec extend i len =
    if len = n || i >= total || in_use t i then len
    else begin
      mark t i true;
      extend (i + 1) (len + 1)
    end
  in
  let len = extend start 0 in
  t.free_count <- t.free_count - len;
  t.next_fit <- (start + len) mod total;
  { start; count = len }

let rec alloc_blocks t n =
  if n = 0 then []
  else
    let e = alloc_extent t n in
    e :: alloc_blocks t (n - e.count)

let free_extents t extents =
  List.iter
    (fun e ->
      for b = e.start to e.start + e.count - 1 do
        mark t b false
      done;
      t.free_count <- t.free_count + e.count)
    extents

(* ------------------------------------------------------------------ *)
(* Extent-relative I/O                                                 *)
(* ------------------------------------------------------------------ *)

(* Map a file-block index to its device block. *)
let block_of_index file idx =
  let rec go extents idx =
    match extents with
    | [] -> err "corrupt extent list"
    | e :: rest -> if idx < e.count then e.start + idx else go rest (idx - e.count)
  in
  go file.extents idx

let blocks_of_file file = List.fold_left (fun a e -> a + e.count) 0 file.extents

let ensure_capacity t file bytes_needed =
  let have = blocks_of_file file in
  let want = (bytes_needed + block_size - 1) / block_size in
  if want > have then
    file.extents <- file.extents @ alloc_blocks t (want - have)

let read_block t file idx =
  let b = block_of_index file idx in
  t.dev.Blockdev.read ~sector:(b * sectors_per_block) ~count:sectors_per_block

(* Group a range of file blocks into maximal runs that are contiguous on
   the device, so multi-block I/O becomes few large device operations
   (clustered I/O, like a real filesystem's readahead/writeback). *)
let device_runs file first_block last_block =
  let rec go idx acc =
    if idx > last_block then List.rev acc
    else
      let dev_block = block_of_index file idx in
      match acc with
      | (run_first, run_dev, run_len) :: rest
        when run_dev + run_len = dev_block ->
          go (idx + 1) ((run_first, run_dev, run_len + 1) :: rest)
      | _ -> go (idx + 1) ((idx, dev_block, 1) :: acc)
  in
  go first_block []

let read_blocks t file ~first_block ~last_block ~visit =
  List.iter
    (fun (run_first, run_dev, run_len) ->
      let data =
        t.dev.Blockdev.read
          ~sector:(run_dev * sectors_per_block)
          ~count:(run_len * sectors_per_block)
      in
      for j = 0 to run_len - 1 do
        visit (run_first + j) (Bytes.sub data (j * block_size) block_size)
      done)
    (device_runs file first_block last_block)

let write_blocks t file ~first_block ~last_block ~fill =
  List.iter
    (fun (run_first, run_dev, run_len) ->
      let data = Bytes.create (run_len * block_size) in
      for j = 0 to run_len - 1 do
        let block = fill (run_first + j) in
        Bytes.blit block 0 data (j * block_size) block_size
      done;
      t.dev.Blockdev.write ~sector:(run_dev * sectors_per_block) data)
    (device_runs file first_block last_block)

(* ------------------------------------------------------------------ *)
(* Public operations                                                   *)
(* ------------------------------------------------------------------ *)

let mkdir t ~path =
  let rec go dir = function
    | [] -> ()
    | seg :: rest -> (
        match Hashtbl.find_opt dir seg with
        | Some (Dir d) -> go d rest
        | Some (File _) -> err "%s exists and is a file" seg
        | None ->
            let d = Hashtbl.create 16 in
            Hashtbl.add dir seg (Dir d);
            go d rest)
  in
  go t.root (split_path path)

let list_dir t ~path =
  match find_node t path with
  | Some (Dir d) ->
      Hashtbl.fold (fun k _ acc -> k :: acc) d [] |> List.sort String.compare
  | Some (File _) -> err "%s is a file" path
  | None -> err "no such directory: %s" path

let create t ~path =
  let dir, leaf = parent_and_leaf t path in
  (match Hashtbl.find_opt dir leaf with
  | Some (File f) ->
      free_extents t f.extents;
      f.extents <- [];
      f.size <- 0
  | Some (Dir _) -> err "%s is a directory" path
  | None ->
      Hashtbl.add dir leaf (File { extents = []; size = 0 });
      t.files <- t.files + 1)

let exists t ~path = find_node t path <> None

let write t ~path ~off data =
  if off < 0 then invalid_arg "Fs.write: negative offset";
  let file = find_file t path in
  let len = Bytes.length data in
  if len > 0 then begin
    ensure_capacity t file (off + len);
    let first_block = off / block_size in
    let last_block = (off + len - 1) / block_size in
    (* Blocks only partially covered by the write need read-modify-write
       (when they may hold prior data); fully covered blocks are built
       from the payload and written in clustered runs. *)
    let fill idx =
      let block_off = idx * block_size in
      let s = max off block_off in
      let e = min (off + len) (block_off + block_size) in
      if e - s = block_size then Bytes.sub data (s - off) block_size
      else begin
        let block =
          if block_off < file.size then read_block t file idx
          else Bytes.make block_size '\000'
        in
        Bytes.blit data (s - off) block (s - block_off) (e - s);
        block
      end
    in
    write_blocks t file ~first_block ~last_block ~fill;
    file.size <- max file.size (off + len)
  end

let append t ~path data =
  let file = find_file t path in
  write t ~path ~off:file.size data

let read t ~path ~off ~len =
  if off < 0 || len < 0 then invalid_arg "Fs.read: negative range";
  let file = find_file t path in
  let len = min len (max 0 (file.size - off)) in
  if len = 0 then Bytes.empty
  else begin
    let out = Bytes.create len in
    let first_block = off / block_size in
    let last_block = (off + len - 1) / block_size in
    read_blocks t file ~first_block ~last_block ~visit:(fun idx block ->
        let block_off = idx * block_size in
        let s = max off block_off in
        let e = min (off + len) (block_off + block_size) in
        Bytes.blit block (s - block_off) out (s - off) (e - s));
    out
  end

let size t ~path = (find_file t path).size

let delete t ~path =
  let dir, leaf = parent_and_leaf t path in
  match Hashtbl.find_opt dir leaf with
  | Some (File f) ->
      free_extents t f.extents;
      Hashtbl.remove dir leaf;
      t.files <- t.files - 1
  | Some (Dir _) -> err "%s is a directory" path
  | None -> err "no such file: %s" path

let rename t ~src ~dst =
  let sdir, sleaf = parent_and_leaf t src in
  match Hashtbl.find_opt sdir sleaf with
  | None -> err "no such file: %s" src
  | Some node ->
      let ddir, dleaf = parent_and_leaf t dst in
      Hashtbl.remove sdir sleaf;
      (match Hashtbl.find_opt ddir dleaf with
      | Some (File f) ->
          free_extents t f.extents;
          Hashtbl.replace ddir dleaf node;
          t.files <- t.files - 1
      | Some (Dir _) -> err "%s is a directory" dst
      | None -> Hashtbl.add ddir dleaf node)

type stat = { st_size : int; st_blocks : int; st_is_dir : bool }

let stat t ~path =
  match find_node t path with
  | Some (File f) ->
      { st_size = f.size; st_blocks = blocks_of_file f; st_is_dir = false }
  | Some (Dir d) ->
      { st_size = Hashtbl.length d; st_blocks = 0; st_is_dir = true }
  | None -> err "no such path: %s" path
