type pte = {
  mutable frame : int;
  mutable prot : Prot.page;
  mutable tag : int option;
}

(* A frozen run of entries starting at [i_first]; a slot whose frame is
   negative is a hole.  One image is shared by every table it is attached
   to, so its entries are never mutated: a table that needs to change a
   base slot first hides it and copies the entry up into its overlay. *)
type image = {
  i_first : int;
  i_ptes : pte array;
  i_count : int;  (* non-hole slots *)
}

let empty_image = { i_first = 0; i_ptes = [||]; i_count = 0 }

let image ~first ~frames ~prot =
  {
    i_first = first;
    i_ptes = Array.map (fun frame -> { frame; prot; tag = None }) frames;
    i_count = Array.fold_left (fun n f -> if f >= 0 then n + 1 else n) 0 frames;
  }

let image_count img = img.i_count

let image_iter f img =
  for i = 0 to Array.length img.i_ptes - 1 do
    let pte = Array.unsafe_get img.i_ptes i in
    if pte.frame >= 0 then f (img.i_first + i) pte
  done

(* The epoch advances on every structural change (map/unmap/attach/clear),
   so a cached translation can be validated with one integer compare.
   In-place pte mutations (a protection downgrade, a COW frame swap) and
   copy-ups deliberately do NOT advance it: those are the revocation paths
   that must perform an explicit TLB shootdown, and the tests assert they
   do.

   A mapping lives either in the private overlay [tbl] or in a live slot
   of the shared [base] image, never both.  [hidden] marks base slots that
   were unmapped or copied up (one byte per slot, allocated on the first
   hide), and [base_live] counts the slots still served from the image. *)
type t = {
  tbl : (int, pte) Hashtbl.t;
  mutable base : image;
  mutable hidden : Bytes.t;
  mutable base_live : int;
  mutable epoch : int;
}

let create () : t =
  { tbl = Hashtbl.create 16; base = empty_image; hidden = Bytes.empty; base_live = 0; epoch = 0 }

let epoch t = t.epoch

(* The base slot serving [vpn], or -1 when the overlay is authoritative. *)
let base_slot t vpn =
  let i = vpn - t.base.i_first in
  if
    i >= 0
    && i < Array.length t.base.i_ptes
    && (Array.unsafe_get t.base.i_ptes i).frame >= 0
    && (Bytes.length t.hidden = 0 || Bytes.unsafe_get t.hidden i = '\000')
  then i
  else -1

let hide t i =
  if Bytes.length t.hidden = 0 then t.hidden <- Bytes.make (Array.length t.base.i_ptes) '\000';
  Bytes.unsafe_set t.hidden i '\001';
  t.base_live <- t.base_live - 1

let copy (p : pte) = { frame = p.frame; prot = p.prot; tag = p.tag }

let find t ~vpn =
  let i = base_slot t vpn in
  if i >= 0 then Some (Array.unsafe_get t.base.i_ptes i) else Hashtbl.find_opt t.tbl vpn

let find_private t ~vpn =
  let i = base_slot t vpn in
  if i >= 0 then begin
    let p = copy (Array.unsafe_get t.base.i_ptes i) in
    hide t i;
    Hashtbl.add t.tbl vpn p;
    Some p
  end
  else Hashtbl.find_opt t.tbl vpn

let mem t ~vpn = base_slot t vpn >= 0 || Hashtbl.mem t.tbl vpn

let map t ~vpn ~frame ~prot ~tag =
  if mem t ~vpn then
    invalid_arg (Printf.sprintf "Pagetable.map: vpn 0x%x already mapped" vpn);
  t.epoch <- t.epoch + 1;
  Hashtbl.add t.tbl vpn { frame; prot; tag }

let unmap t ~vpn =
  let i = base_slot t vpn in
  if i >= 0 then begin
    t.epoch <- t.epoch + 1;
    hide t i;
    Some (copy (Array.unsafe_get t.base.i_ptes i))
  end
  else
    match Hashtbl.find_opt t.tbl vpn with
    | Some pte ->
        t.epoch <- t.epoch + 1;
        Hashtbl.remove t.tbl vpn;
        Some pte
    | None -> None

let attach t img =
  if t.base != empty_image then invalid_arg "Pagetable.attach: an image is already attached";
  if Hashtbl.length t.tbl > 0 then
    Hashtbl.iter
      (fun vpn _ ->
        let i = vpn - img.i_first in
        if i >= 0 && i < Array.length img.i_ptes && img.i_ptes.(i).frame >= 0 then
          invalid_arg (Printf.sprintf "Pagetable.attach: vpn 0x%x already mapped" vpn))
      t.tbl;
  t.epoch <- t.epoch + 1;
  t.base <- img;
  t.base_live <- img.i_count

let clear t =
  t.epoch <- t.epoch + 1;
  Hashtbl.reset t.tbl;
  t.base <- empty_image;
  t.hidden <- Bytes.empty;
  t.base_live <- 0

let count t = t.base_live + Hashtbl.length t.tbl

(* Live base slots in ascending vpn order, then the overlay. *)
let iter f t =
  if t.base_live > 0 then
    Array.iteri
      (fun i pte -> if base_slot t (t.base.i_first + i) >= 0 then f (t.base.i_first + i) pte)
      t.base.i_ptes;
  Hashtbl.iter f t.tbl

let fold f t init =
  let acc = ref init in
  if t.base_live > 0 then
    Array.iteri
      (fun i pte ->
        if base_slot t (t.base.i_first + i) >= 0 then acc := f (t.base.i_first + i) pte !acc)
      t.base.i_ptes;
  Hashtbl.fold f t.tbl !acc
