(** Per-process page table: virtual page number to frame + protection.

    A tag id is recorded on pages that belong to tagged-memory segments so
    that policy checks and Crowbar attribution can name them.

    A table is a private overlay over an optional shared base layer: an
    {!image} built once and attached to every compartment started from
    it (the pristine boot snapshot, a frozen snapshot-pool image, or a
    forked parent's walk), so a new address space costs one pointer
    rather than one entry per page.  Shared entries are never mutated.
    Before any entry for a base slot can change — a COW break, a
    protection or tag rewrite, an unmap — the slot is hidden and its entry
    copied up into the overlay ({!find_private}, {!unmap}).  Lookups and
    walks report exactly the live mappings, whichever layer serves them. *)

type pte = {
  mutable frame : int;
  mutable prot : Prot.page;
  mutable tag : int option;
}

type image
(** An immutable set of entries sorted by vpn, shared by every table it is
    attached to. *)

val image : (int * int * Prot.page * int option) list -> image
(** [image entries] maps each [(vpn, frame, prot, tag)], given in any
    order.  A lookup outside the image's vpn range costs one range check,
    one inside its leading run of consecutive vpns one index; only a vpn
    past the first gap is binary-searched.  Takes no frame references —
    that is the caller's bookkeeping.
    @raise Invalid_argument if a vpn is given twice. *)

val image_count : image -> int
(** Number of entries. *)

val image_iter : (int -> pte -> unit) -> image -> unit
(** [image_iter f img] calls [f vpn pte] for every entry, in ascending vpn
    order.  The entries are shared: never mutate them. *)

type t

val create : unit -> t

val epoch : t -> int
(** Generation counter, advanced by every {!map}, {!unmap}, {!attach} and
    {!clear}.  A software TLB stamps each cached translation with the
    epoch at fill time, so any structural change to the address space
    invalidates every cached entry with one compare.  In-place pte
    mutations (protection changes, COW frame swaps) and copy-ups do {e not}
    advance the epoch — those paths must shoot the affected entries down
    explicitly (see {!Vm.protect_range}). *)

val attach : t -> image -> unit
(** Make [image] this table's base layer.
    @raise Invalid_argument if a base layer is already attached or any
    vpn of [image] is already mapped in the overlay. *)

val clear : t -> unit
(** Drop every mapping, detaching the base layer.  Releases no frames. *)

val map : t -> vpn:int -> frame:int -> prot:Prot.page -> tag:int option -> unit
(** @raise Invalid_argument if [vpn] is already mapped (in either layer). *)

val unmap : t -> vpn:int -> pte option
(** Removes and returns the entry, if mapped.  A base slot is hidden and a
    private copy of its entry returned. *)

val find : t -> vpn:int -> pte option
(** The entry for [vpn].  It may be a shared base entry: read it, never
    mutate it — use {!find_private} for that. *)

val find_private : t -> vpn:int -> pte option
(** Like {!find}, but a base slot is first copied up into the overlay, so
    the entry returned belongs to this table alone and may be mutated in
    place.  Does not advance the epoch. *)

val mem : t -> vpn:int -> bool
val count : t -> int

val iter : (int -> pte -> unit) -> t -> unit
val fold : (int -> pte -> 'a -> 'a) -> t -> 'a -> 'a
(** Visit each live mapping exactly once: base slots in ascending vpn
    order, then the overlay.  The entries passed may be shared (see
    {!find}). *)
