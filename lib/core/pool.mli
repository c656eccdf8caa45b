(** Frozen compartment snapshot pools: O(1) crash recovery.

    Sthread creation is fork-priced — a [pte_copy] per pristine page and
    an [fd_dup] per granted descriptor — so spawn (and therefore crash
    recovery) scales with the image.  A pool checkpoints one fully-booted
    worker instead: {!freeze} builds a template the expensive way (with
    an optional warm-up body so demand-mapped heap and stack pages join
    the image), pins every frame of its address space with an extra
    reference, records private writable pages copy-on-write in one
    {!Wedge_kernel.Pagetable.image}, captures the descriptor-table and
    rlimit shape, and reaps the template.  {!stamp} then starts a fresh
    sthread by attaching that image ({!Wedge_kernel.Vm.attach_image}, the
    same path as the pristine snapshot) for one flat [pool_stamp] charge,
    independent of how many pages it holds —
    per-connection grants ride in through [extra] at the usual per-page/
    per-fd price, keeping the O(1) in the image, where the bytes are.

    Stamped children never dirty the image: their writes to frozen pages
    break copy-on-write into private frames, and tagged grant pages keep
    their grant protection (tag memory is shared-mutable by design).
    Fault sites ["pool.freeze"] and ["pool.stamp"] inject mid-operation;
    the unwind reaps the half-built process, which returns every frame
    reference it took and leaves the frozen image pristine — an
    invariant the [lib/check] refcount oracle re-derives independently
    (frozen images are pristine-like frame holders). *)

type t

val freeze :
  ?name:string -> ?warm:(Engine.ctx -> unit) -> Engine.ctx -> Sc.t -> t
(** [freeze parent sc] builds a worker from [sc] (validated against
    [parent] like any sthread policy), runs [warm] in it if given, and
    checkpoints its entire address space plus descriptor table, rlimit
    shape and identity into a frozen image registered on the app.  The
    template pays the full fork-priced boot exactly once and is reaped
    before [freeze] returns.  Raises [Invalid_argument] if the app is
    not booted or an image named [name] already exists; injected faults
    at site ["pool.freeze"] propagate after a clean unwind. *)

val stamp :
  ?instr:Wedge_sim.Instr.t ->
  ?extra:Sc.t ->
  Engine.ctx ->
  t ->
  (Engine.ctx -> int -> int) ->
  int ->
  Engine.handle
(** [stamp parent pool fn arg] creates a new sthread whose address space
    starts as the frozen image, attached for one flat [pool_stamp] charge,
    then runs [fn] in it like {!Engine.sthread_create} (same containment,
    same handle).  [extra] carries per-invocation grants — tags, fds,
    identity and limit overrides — validated against [parent] and mapped
    at the usual per-page/per-fd cost on top of the image (entries the
    image already provides are skipped).  Identity and limits default to
    the frozen template's.  Injected faults at site ["pool.stamp"]
    propagate after the half-stamped child is reaped — refcounts clean,
    image untouched. *)

val discard : Engine.ctx -> t -> unit
(** Drop the image's frame references and unregister it.  Frames still
    mapped by running stamped children survive on their own references.
    Idempotent; stamping from a discarded pool raises
    [Invalid_argument]. *)

val name : t -> string
val frozen_pages : t -> int
(** Pages in the frozen image (what one {!stamp} attaches for its flat
    charge). *)

val is_live : t -> bool
