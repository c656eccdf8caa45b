type pte = {
  mutable frame : int;
  mutable prot : Prot.page;
  mutable tag : int option;
}

(* A frozen, sorted run of entries.  [i_vpns] ascends with no duplicate;
   its first [i_dense] vpns are consecutive, so a vpn there is found by
   one subtraction, and only a vpn past the first gap is binary-searched.
   One image is shared by every table it is attached to, so its entries
   are never mutated: a table that needs to change a base slot first
   hides it and copies the entry up into its overlay. *)
type image = {
  i_vpns : int array;
  i_ptes : pte array;
  i_lo : int;  (* the lowest vpn, or 1 when empty *)
  i_hi : int;  (* the highest vpn, or 0 when empty *)
  i_dense : int;
}

(* Fills fresh [i_ptes] arrays.  A static value: [Array.make] with a
   freshly allocated one would force a minor collection first. *)
let no_pte = { frame = -1; prot = Prot.page_none; tag = None }

let image entries =
  let rec ascending = function
    | (v, _, _, _) :: ((w, _, _, _) :: _ as rest) -> v < w && ascending rest
    | _ -> true
  in
  let entries =
    if ascending entries then entries
    else List.sort (fun (v, _, _, _) (w, _, _, _) -> Int.compare v w) entries
  in
  let n = List.length entries in
  let vpns = Array.make n 0 in
  let ptes = Array.make n no_pte in
  List.iteri
    (fun i (vpn, frame, prot, tag) ->
      if i > 0 && vpn = vpns.(i - 1) then
        invalid_arg (Printf.sprintf "Pagetable.image: vpn 0x%x given twice" vpn);
      vpns.(i) <- vpn;
      ptes.(i) <- { frame; prot; tag })
    entries;
  let dense = ref (min n 1) in
  while !dense < n && vpns.(!dense) = vpns.(0) + !dense do
    incr dense
  done;
  {
    i_vpns = vpns;
    i_ptes = ptes;
    i_lo = (if n = 0 then 1 else vpns.(0));
    i_hi = (if n = 0 then 0 else vpns.(n - 1));
    i_dense = !dense;
  }

let empty_image = image []
let image_count img = Array.length img.i_vpns

let image_iter f img =
  for i = 0 to Array.length img.i_vpns - 1 do
    f (Array.unsafe_get img.i_vpns i) (Array.unsafe_get img.i_ptes i)
  done

let rec search vpns vpn lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let v = Array.unsafe_get vpns mid in
    if v = vpn then mid else if v < vpn then search vpns vpn (mid + 1) hi else search vpns vpn lo mid

(* The slot holding [vpn], or -1.  This is on every TLB miss: outside the
   image's range it costs one range check, in the dense prefix one index. *)
let slot img vpn =
  if vpn < img.i_lo || vpn > img.i_hi then -1
  else
    let i = vpn - img.i_lo in
    if i < img.i_dense then i else search img.i_vpns vpn img.i_dense (Array.length img.i_vpns)

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
let live t i = Bytes.length t.hidden = 0 || Bytes.unsafe_get t.hidden i = '\000'

(* The base slot serving [vpn], or -1 when the overlay is authoritative. *)
let base_slot t vpn =
  let i = slot t.base vpn in
  if i >= 0 && live t i then i else -1

let hide t i =
  if Bytes.length t.hidden = 0 then t.hidden <- Bytes.make (image_count t.base) '\000';
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
  Hashtbl.iter
    (fun vpn _ ->
      if slot img vpn >= 0 then
        invalid_arg (Printf.sprintf "Pagetable.attach: vpn 0x%x already mapped" vpn))
    t.tbl;
  t.epoch <- t.epoch + 1;
  t.base <- img;
  t.base_live <- image_count img

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
    for i = 0 to image_count t.base - 1 do
      if live t i then f (Array.unsafe_get t.base.i_vpns i) (Array.unsafe_get t.base.i_ptes i)
    done;
  Hashtbl.iter f t.tbl

let fold f t init =
  let acc = ref init in
  iter (fun vpn pte -> acc := f vpn pte !acc) t;
  !acc
