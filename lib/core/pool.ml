(* Compartment checkpoint/restore: freeze a fully-booted worker image
   once, stamp new sthreads out of it in O(1).

   [freeze] builds a template worker the expensive way — pristine
   snapshot charged page by page, grants resolved, optionally a [warm]
   body run so lazily-mapped private pages (heap, stack) exist — then
   checkpoints the template's entire address space: every frame gets one
   extra Physmem reference held by the image, private writable pages are
   recorded copy-on-write (the image must never change again), and the
   template is reaped.  What survives is one [Pagetable.image], the
   captured descriptor table, the rlimit shape and the identity — no
   process, no address space.

   [stamp] is the paper's Figure 7/8 story taken further than recycled
   callgates: a new sthread whose address space starts as the frozen
   image, attached via [Vm.attach_image] (the same install path as the
   pristine snapshot) at one flat [pool_stamp] charge, however many
   pages the image holds.  Per-connection grants ride in through
   [extra] (validated against the stamping parent like any sc), so the
   O(1) cost is in the image size, not in the constant-sized per-request
   policy.

   Both paths are attackable: fault sites ["pool.freeze"] and
   ["pool.stamp"] inject mid-operation, and the unwind must leave the
   frozen image pristine and every refcount clean — which the
   [lib/check] refcount oracle re-derives (frozen images count as
   pristine-like owners) across explored schedules. *)

module Clock = Wedge_sim.Clock
module Cost_model = Wedge_sim.Cost_model
module Trace = Wedge_sim.Trace
module Kernel = Wedge_kernel.Kernel
module Vm = Wedge_kernel.Vm
module Prot = Wedge_kernel.Prot
module Process = Wedge_kernel.Process
module Fd_table = Wedge_kernel.Fd_table
module Pagetable = Wedge_kernel.Pagetable
module Physmem = Wedge_kernel.Physmem
module Layout = Wedge_kernel.Layout
module Rlimit = Wedge_kernel.Rlimit
module Fault_plan = Wedge_fault.Fault_plan

let page_size = Physmem.page_size

type t = {
  name : string;
  app : Engine.app;
  image : Pagetable.image;  (* the frozen address space, one ref per entry *)
  fds : (int * Fd_table.target * Fd_table.perm) list;
      (* descriptor table shape captured at freeze time *)
  limits : Rlimit.t;  (* caps shape stamped children inherit *)
  uid : int;
  root : string;
  sid : string;
  mutable live : bool;
}

let name t = t.name
let frozen_pages t = Pagetable.image_count t.image
let is_live t = t.live

let roll_site app site =
  match Fault_plan.roll_opt app.Engine.kernel.Kernel.faults ~site with
  | Some (Fault_plan.Delay ns) -> Clock.charge app.Engine.kernel.Kernel.clock ns
  | Some k -> Fault_plan.fail ~site k
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Freeze                                                              *)

let freeze ?(name = "pool") ?warm parent (sc : Sc.t) =
  let app = parent.Engine.app in
  if not (Engine.booted app) then invalid_arg "Pool.freeze: application not booted";
  if List.mem_assoc name app.Engine.frozen_images then
    invalid_arg (Printf.sprintf "Pool.freeze: image %S already frozen" name);
  Kernel.syscall_check app.Engine.kernel parent.Engine.proc "sthread_create";
  Engine.stat parent "pool.freeze";
  Engine.validate_sc parent sc;
  let tr = Engine.ktrace parent in
  if Trace.enabled tr then
    Trace.span_begin tr ~name:"pool.freeze" ~pid:(Engine.pid parent);
  let finish v =
    if Trace.enabled tr then
      Trace.span_end tr ~name:"pool.freeze" ~pid:(Engine.pid parent);
    v
  in
  let uid, root, sid = Engine.resolve_identity parent sc in
  let limits = Engine.resolve_limits parent sc in
  (* The template pays the full fork-priced boot exactly once — that is
     the checkpoint's whole bargain. *)
  let template =
    Kernel.new_process app.Engine.kernel ~limits ~kind:Process.Sthread ~uid ~root ~sid ()
  in
  match
    Engine.map_pristine app template.Process.vm;
    ignore (Engine.map_grants parent template sc);
    (* Mid-freeze fault site: the template exists and holds references,
       so the unwind below must release every one of them. *)
    roll_site app "pool.freeze";
    (match warm with
    | None -> ()
    | Some body ->
        (* Run the warm-up body in the template so demand-mapped private
           pages (heap, stack) become part of the frozen image. *)
        let tctx = Engine.make_ctx app template sc parent.Engine.instr in
        body tctx);
    (* Checkpoint: every mapped page, one image reference each.
       Untagged writable pages freeze copy-on-write — a stamped child
       that writes one breaks into a private copy, never onto the image.
       Tagged pages keep their grant protection: tag memory is
       shared-mutable by design, and COW-ing it would silently unshare
       the very channels compartments communicate over. *)
    let pm = app.Engine.kernel.Kernel.pm in
    let image =
      Pagetable.image
        (Pagetable.fold
           (fun vpn (pte : Pagetable.pte) acc ->
             Physmem.incref pm pte.frame;
             let prot = if pte.prot.Prot.pw && pte.tag = None then Prot.page_cow else pte.prot in
             (vpn, pte.frame, prot, pte.tag) :: acc)
           (Vm.page_table template.Process.vm) [])
    in
    let fds =
      List.filter_map
        (fun fd ->
          match Fd_table.find template.Process.fds fd with
          | Some e when not e.Fd_table.closed ->
              Some (fd, e.Fd_table.target, e.Fd_table.perm)
          | _ -> None)
        (Fd_table.fds template.Process.fds)
    in
    (image, fds)
  with
  | exception e ->
      (* Unwind: the template's address space holds the only references
         taken so far; reaping it releases them all and the world is as
         if freeze was never called. *)
      template.Process.status <-
        Process.Faulted
          (match Engine.fault_reason e with Some r -> r | None -> "freeze failed");
      Kernel.reap app.Engine.kernel template;
      Engine.stat parent "pool.freeze.fault";
      ignore (finish ());
      raise e
  | image, fds ->
      template.Process.status <- Process.Exited 0;
      Kernel.reap app.Engine.kernel template;
      app.Engine.frozen_images <- (name, image) :: app.Engine.frozen_images;
      app.Engine.pool_freezes <- app.Engine.pool_freezes + 1;
      Engine.trace_instant parent "pool.frozen";
      finish
        {
          name;
          app;
          image;
          fds;
          limits = Option.value sc.Sc.limits ~default:parent.Engine.proc.Process.limits;
          uid;
          root;
          sid;
          live = true;
        }

(* ------------------------------------------------------------------ *)
(* Stamp                                                               *)

let stamp ?instr ?extra parent pool fn arg =
  if not pool.live then invalid_arg "Pool.stamp: image discarded";
  let app = pool.app in
  if parent.Engine.app != app then invalid_arg "Pool.stamp: parent from another app";
  Kernel.syscall_check app.Engine.kernel parent.Engine.proc "sthread_create";
  app.Engine.pool_stamps <- app.Engine.pool_stamps + 1;
  Engine.stat parent "pool.stamp";
  let extra = match extra with Some e -> e | None -> Sc.create () in
  Engine.validate_sc parent extra;
  let tr = Engine.ktrace parent in
  if Trace.enabled tr then
    Trace.span_begin tr ~name:"pool.stamp" ~pid:(Engine.pid parent);
  let finish v =
    if Trace.enabled tr then
      Trace.span_end tr ~name:"pool.stamp" ~pid:(Engine.pid parent);
    v
  in
  (* Identity and limits come from the frozen image unless the extras
     override them (already validated against the stamping parent). *)
  let uid = Option.value extra.Sc.uid ~default:pool.uid in
  let root = Option.value extra.Sc.root ~default:pool.root in
  let sid = Option.value extra.Sc.sid ~default:pool.sid in
  let limits = Rlimit.child_of (Option.value extra.Sc.limits ~default:pool.limits) in
  let kernel = app.Engine.kernel in
  let child = Kernel.new_process kernel ~limits ~kind:Process.Sthread ~uid ~root ~sid () in
  match
    (* The restore: the whole image is attached for one flat charge —
       spawn cost independent of address-space size. *)
    Clock.charge kernel.Kernel.clock kernel.Kernel.costs.Cost_model.pool_stamp;
    Vm.attach_image child.Process.vm pool.image;
    (* Mid-stamp fault site: pages are mapped (references taken) but the
       descriptor table is not yet populated — the unwind must return
       every reference and leave the frozen image untouched. *)
    roll_site app "pool.stamp";
    List.iter
      (fun (fd, target, perm) ->
        Clock.charge kernel.Kernel.clock kernel.Kernel.costs.Cost_model.fd_dup;
        Fd_table.install child.Process.fds ~fd target perm)
      pool.fds;
    (* Per-invocation extras ride on top of the image, skipping what
       it already provides. *)
    ignore (Engine.map_grants parent child extra)
  with
  | exception e ->
      (match Engine.fault_reason e with
      | Some reason ->
          child.Process.status <- Process.Faulted reason;
          Engine.stat parent "pool.stamp.fault";
          Engine.trace_instant parent "pool.stamp.fault"
      | None -> child.Process.status <- Process.Faulted "stamp failed");
      (* Reap releases the child's quota charges and its per-page frame
         references; the image's own references are untouched. *)
      Kernel.reap kernel child;
      ignore (finish ());
      raise e
  | () ->
      app.Engine.pool_hits <- app.Engine.pool_hits + 1;
      let cctx =
        Engine.make_ctx app child extra (Option.value instr ~default:parent.Engine.instr)
      in
      (* A warmed image carries the template's demand-mapped heap/stack
         (smalloc bookkeeping included); the stamped ctx must know, or
         its first allocation would try to re-map pages the image
         already provides. *)
      let pt = Vm.page_table child.Process.vm in
      if Pagetable.mem pt ~vpn:(Layout.heap_base / page_size) then
        cctx.Engine.heap_ready <- true;
      if Pagetable.mem pt ~vpn:(Layout.stack_base / page_size) then
        cctx.Engine.stack_ready <- true;
      Engine.trace_instant cctx "pool.stamped";
      finish (Engine.run_and_reap cctx fn arg)

(* ------------------------------------------------------------------ *)
(* Discard                                                             *)

let discard parent pool =
  if pool.live then begin
    pool.live <- false;
    let app = pool.app in
    Engine.stat parent "pool.discard";
    Engine.trace_instant parent "pool.discard";
    app.Engine.frozen_images <-
      List.filter (fun (_, img) -> img != pool.image) app.Engine.frozen_images;
    (* Dropping the image's references frees any frame no live address
       space still maps; frames shared with running stamped children
       survive on their references and die with their last unmap (which
       goes through the Vm teardown/shootdown path as usual). *)
    let pm = app.Engine.kernel.Kernel.pm in
    Pagetable.image_iter (fun _ pte -> Physmem.decref pm pte.Pagetable.frame) pool.image
  end
