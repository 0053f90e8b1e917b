type device = Nic of Nic.t | Nvme of Nvme.t

exception Pci_error of string

type slot = {
  device : device;
  mutable assignable : bool;
  mutable owner : Kite_xen.Domain.t option;
}

type t = { iommu : bool; slots : (string, slot) Hashtbl.t }

let create ?(iommu = true) () = { iommu; slots = Hashtbl.create 8 }

let register t ~bdf device =
  if Hashtbl.mem t.slots bdf then
    raise (Pci_error (Printf.sprintf "device %s already present" bdf));
  Hashtbl.add t.slots bdf { device; assignable = false; owner = None }

let get t bdf =
  match Hashtbl.find_opt t.slots bdf with
  | Some s -> s
  | None -> raise (Pci_error (Printf.sprintf "no PCI device at %s" bdf))

let assignable_add t ~bdf =
  let s = get t bdf in
  if s.owner <> None then
    raise (Pci_error (Printf.sprintf "device %s is attached; detach first" bdf));
  s.assignable <- true

let attach t ~bdf dom =
  let s = get t bdf in
  if not s.assignable then
    raise (Pci_error (Printf.sprintf "device %s is not assignable" bdf));
  (match s.owner with
  | Some d ->
      raise
        (Pci_error
           (Printf.sprintf "device %s already attached to %s" bdf
              d.Kite_xen.Domain.name))
  | None -> ());
  if (not (Kite_xen.Domain.is_privileged dom)) && not t.iommu then
    raise
      (Pci_error
         (Printf.sprintf
            "cannot assign %s to unprivileged %s without an IOMMU" bdf
            dom.Kite_xen.Domain.name));
  s.owner <- Some dom;
  s.device

let detach t ~bdf =
  let s = get t bdf in
  s.owner <- None

let owner t ~bdf = (get t bdf).owner

let devices t =
  Hashtbl.fold (fun bdf s acc -> (bdf, s.device) :: acc) t.slots []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
