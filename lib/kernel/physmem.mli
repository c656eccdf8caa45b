(** Simulated physical memory: 4 KiB frames with reference counts.

    Frames are shared between address spaces for copy-on-write (the pristine
    snapshot of §4.1) and for tagged-memory mappings; the reference count
    decides whether a COW write can claim the frame in place or must copy.

    Frames get their memory on first touch: a frame is born zero, and its
    4 KiB backing store is created by the first {!get} and dropped when
    the frame dies.  {!get} is the only door to a frame's bytes, so a
    frame that is mapped but never read or written costs no buffer. *)

val page_size : int
(** 4096. *)

exception Enomem
(** Frame allocation failed: the configured [max_frames] budget is
    exhausted, or an attached fault plan fired at site ["physmem.alloc"].
    The engine turns this into compartment termination. *)

type t

val create : ?faults:Wedge_fault.Fault_plan.t -> ?max_frames:int -> unit -> t
(** [max_frames] caps live frames ({!frames_in_use}); allocation beyond it
    raises {!Enomem}.  Unbounded by default. *)

val alloc : t -> int
(** Allocate a zeroed frame with reference count 1; returns the frame
    number.  Allocates no backing store (see {!get}).
    @raise Enomem on budget exhaustion or injected allocation failure. *)

val get : t -> int -> bytes
(** The backing bytes of a live frame.  O(1).  The first call on a frame
    creates its zeroed store; later calls return the same buffer until
    the frame dies.
    @raise Invalid_argument on a dead frame. *)

val scrub : t -> int -> unit
(** Zero a live frame's bytes.  A frame never touched has no store and
    already reads as zero, so it stays without one.
    @raise Invalid_argument on a dead frame. *)

val incref : t -> int -> unit
val decref : t -> int -> unit
(** [decref] frees the frame when the count reaches zero. *)

val refcount : t -> int -> int
val frames_in_use : t -> int

val iter_live : t -> (int -> int -> unit) -> unit
(** [iter_live t f] calls [f frame refcount] for every live frame, in
    frame order.  Pure (no allocation charges, no fault rolls) — the
    refcount invariant oracle's view of ground truth. *)
