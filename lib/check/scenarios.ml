(* Checkable chaos scenarios for schedule exploration: a server × feature
   matrix.

   Each scenario builds a fresh simulated world (kernel, app, servers),
   runs a melee of Byzantine clients — optionally under an armed fault
   plan — with the invariant oracle wired to every system call and a
   sampled stream of context switches, and finishes with a full oracle
   sweep (plus a differential-model verify when [diff] is set).  The
   returned string is a deterministic summary of everything observable
   (tallies, guard stats, fault trace digest): two runs with the same
   seed and schedule policy must produce identical summaries, which is
   what [Explore] digests.

   Every server supplies one {!kit} — how to boot it on a kernel, its
   melee stimuli, its clean request or heal probe, its rejection
   predicate and its summary extras — and every feature (plain, storm,
   pool storm, sharded, synth) is written once against the kit.  The
   registry is the product of the two.

   Failures are exceptions: [Oracle.Violation], [Refvm.Mismatch], a
   scenario's own end-state assertion, or anything a server let escape
   containment.  [Explore] catches them, captures the scheduler decision
   trace and shrinks it.

   The [racy] scenario is the deliberately buggy control: two sthreads
   increment a shared tagged counter, one of them yielding between its
   read and its write.  Under FIFO scheduling the window never overlaps;
   under seeded random/PCT schedules the lost update manifests and the
   end-state assertion fails — the mutation-style sanity check that the
   explorer actually catches schedule-dependent bugs. *)

module Kernel = Wedge_kernel.Kernel
module Cost_model = Wedge_sim.Cost_model
module Clock = Wedge_sim.Clock
module Stats = Wedge_sim.Stats
module Fiber = Wedge_sim.Fiber
module Fault_plan = Wedge_fault.Fault_plan
module Chan = Wedge_net.Chan
module Guard = Wedge_net.Guard
module Reactor = Wedge_sim.Reactor
module Byzantine = Wedge_net.Byzantine
module Drbg = Wedge_crypto.Drbg
module Rsa = Wedge_crypto.Rsa
module W = Wedge_core.Wedge
module Supervisor = Wedge_core.Supervisor
module Shard = Wedge_net.Shard
module Prot = Wedge_kernel.Prot
module Synth = Wedge_crowbar.Synth

type t = {
  s_name : string;
  s_doc : string;
  s_run : policy:Fiber.policy -> diff:bool -> faults:bool -> seed:int -> string;
}

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* Run [main] under [policy] with the oracle (and optionally the
   differential model) armed, then sweep.  [summarize] builds the
   deterministic outcome line from whatever the scenario observed.
   [reactor]'s hook (timers, the guard's deadlines among them) runs
   {e before} the oracle's sampled check, so invariants like
   [Guard.deadline_check] hold at every inspected switch, and its [idle]
   is the scheduler's [on_idle]; [clock] is threaded to the fiber
   scheduler so induced ["fiber.stall"] faults charge simulated time. *)
let checked ~kernel ?app ?sched_faults ?clock ?reactor ~policy ~diff main summarize =
  let oracle = Oracle.create kernel in
  (match app with Some a -> Oracle.set_app oracle a | None -> ());
  let refvm = if diff then Some (Refvm.create kernel) else None in
  Oracle.install_syscall_hook oracle;
  (match refvm with Some rv -> Refvm.arm rv | None -> ());
  let on_switch =
    let ohook = Oracle.hook oracle in
    match reactor with
    | None -> ohook
    | Some r ->
        let rhook = Reactor.hook r in
        fun () ->
          rhook ();
          ohook ()
  in
  let on_idle = Option.map Reactor.idle reactor in
  Fun.protect
    ~finally:(fun () ->
      Oracle.remove_syscall_hook oracle;
      match refvm with Some rv -> Refvm.disarm rv | None -> ())
    (fun () ->
      Fiber.run ?faults:sched_faults ?clock ?on_idle ~policy ~on_switch (fun () ->
          main oracle);
      Oracle.check oracle;
      (match refvm with Some rv -> Refvm.verify rv | None -> ());
      Printf.sprintf "%s checks=%d diff_events=%s" (summarize ())
        (Oracle.checks_run oracle)
        (match refvm with Some rv -> string_of_int (Refvm.events rv) | None -> "-"))

let tally_to_string (t : Byzantine.tally) =
  Printf.sprintf "ok=%d refused=%d rejected=%d cut=%d err=%d" t.Byzantine.completed
    t.refused t.rejected t.cut t.errors

let guard_to_string (s : Guard.stats) =
  Printf.sprintf
    "admitted=%d busy=%d draining=%d timed_out=%d forced=%d shed=%d bopen=%d active=%d"
    s.Guard.s_admitted s.s_rejected_busy s.s_rejected_draining s.s_timed_out s.s_forced
    s.s_shed s.s_breaker_opened s.s_active

let plan_digest plan = Digest.to_hex (Digest.string (Fault_plan.trace plan))

(* Recovery epilogue for the storm scenarios: with the fault plan already
   disarmed, advance the clock past the breaker's cooling period and feed
   clean probe connections until the breaker closes — the scenario's own
   "system healed" assertion.  A worker quarantined by the storm makes
   the first probes fail and re-open the breaker; the clock advances each
   round, so the quarantine lifts and the loop converges.  The bound only
   trips when recovery is genuinely broken. *)
let heal_breaker ~what guard clock probe =
  let rec go tries =
    match Guard.breaker_state guard with
    | None | Some Guard.Closed -> tries
    | Some _ ->
        if tries >= 60 then
          raise (Oracle.Violation (what ^ ": breaker stuck open after the storm ended"))
        else begin
          Clock.charge clock 6_000;
          probe ();
          (* Outcomes reach the breaker when the serve fiber finishes. *)
          Fiber.wait_until
            ~what:(what ^ " probe settled")
            (fun () -> Guard.active guard = 0);
          go (tries + 1)
        end
  in
  go 0


(* ------------------------------------------------------------------ *)
(* RACY: the deliberately schedule-dependent lost-update bug           *)

let racy_rounds = 3

let run_racy ~policy ~diff ~faults:_ ~seed:_ =
  let k = Kernel.create ~costs:Cost_model.free () in
  let app = W.create_app ~image_pages:40 k in
  W.boot app;
  let main_ctx = W.main_ctx app in
  let tag = W.tag_new ~name:"counter" main_ctx in
  let addr = W.smalloc main_ctx 8 tag in
  W.write_u64 main_ctx addr 0;
  let done_n = ref 0 in
  (* Worker A ([yields_mid = false]) never yields: it runs its whole
     increment loop as one scheduling unit.  Worker B opens a window
     between read and write.  Spawned A-then-B, round-robin runs A to
     completion before B's first window opens, so the lost update only
     manifests under schedules that start B first — exactly the
     schedule-dependence exploration must be able to find. *)
  let worker yields_mid ctx _ =
    for _ = 1 to racy_rounds do
      let v = W.read_u64 ctx addr in
      if yields_mid then Fiber.yield ();
      (* The unlocked read-modify-write: any increment scheduled into the
         window above is lost. *)
      W.write_u64 ctx addr (v + 1);
      if yields_mid then Fiber.yield ()
    done;
    0
  in
  let spawn_worker yields_mid =
    Fiber.spawn (fun () ->
        let sc = W.sc_create () in
        W.sc_mem_add sc tag Prot.RW;
        ignore (W.sthread_join main_ctx (W.sthread_create main_ctx sc (worker yields_mid) 0));
        incr done_n)
  in
  checked ~kernel:k ~app ~policy ~diff
    (fun _oracle ->
      spawn_worker false;
      spawn_worker true;
      Fiber.wait_until ~what:"racy workers joined" (fun () -> !done_n = 2);
      let final = W.read_u64 main_ctx addr in
      if final <> 2 * racy_rounds then
        raise
          (Oracle.Violation
             (Printf.sprintf "racy: lost update — counter %d after %d increments" final
                (2 * racy_rounds))))
    (fun () -> Printf.sprintf "racy counter=%d" (W.read_u64 main_ctx addr))

(* ------------------------------------------------------------------ *)
(* The scenario kit: what a server brings to the matrix                *)

(* One melee client; the kit supplies the bytes. *)
type stimulus =
  | Oneshot  (* the kit's [request] *)
  | Half_close  (* the kit's [half_close] request, then close the write side *)
  | Oversized of int * string  (* a line this long; rejected when the reply has the marker *)
  | Silent  (* connect and never speak: only a drain resolves it *)
  | Stall  (* the kit's [stall_prefix], then hang mid-frame *)

(* Where a client connects: the one listener, or the shard its key
   hashes to (with that shard's clock and environment). *)
type 'env at = {
  listener : string -> Chan.listener;
  clock_of : string -> Clock.t;
  env_of : string -> 'env;
}

(* Well-behaved clients next to the melee: each fetches from the
   environment its key routes to and says whether it was served. *)
type 'env real = {
  label : string;
  keys : string list;
  fetch : 'env -> rng:Drbg.t -> Chan.ep -> bool;
}

type 'env kit = {
  server : string;  (* stat prefix, scenario-name prefix *)
  doc : string;  (* what the plain melee is *)
  serve : (module Wedge_net.Server.SERVE with type env = 'env);
  boot : seed:int -> Kernel.t -> 'env;
  app : 'env -> W.app;
  image_pages : int;
  max_request_bytes : int option;
  backlog : int;
  max_conns : int;
  header_deadline_ns : int option;  (* the plain and sharded guards' *)
  chan_fault : float;  (* per-op chan.read / chan.write fault probability *)
  enomem_fault : float option;  (* plain only *)
  cgate_faults : bool;  (* the storm's worker calls callgates *)
  request : string;
  half_close : string;
  stall_prefix : string;
  rejection : string -> bool;
  melee : int -> stimulus;  (* client [i] of the plain and sharded melee *)
  clients : int;
  loris : string option;  (* plain: one slow-loris client dribbling this *)
  real : 'env real option;
  storm_clients : int;
  heal : ('env -> seed:int -> Chan.listener -> unit -> unit) option;
      (* the storm's heal probe; default a one-shot [request] *)
  counters : string list;  (* kernel stats (after the prefix) in the plain summary *)
  synth_workload :
    seed:int -> 'env -> Synth.t option -> (unit -> unit) * (unit -> bool * string);
      (* a clean workload to run in a fiber, and its (succeeded, summary) *)
  synth_counters : string list;
}

let counters_summary kit k names =
  String.concat ""
    (List.map
       (fun c -> Printf.sprintf " %s=%d" c (Stats.get k.Kernel.stats (kit.server ^ "." ^ c)))
       names)

let stimulate kit at t ~key = function
  | Oneshot ->
      Byzantine.oneshot t (at.listener key) ~request:kit.request ~is_rejection:kit.rejection
  | Half_close ->
      Byzantine.half_close t (at.listener key) ~request:kit.half_close
        ~is_rejection:kit.rejection
  | Oversized (size, marker) ->
      Byzantine.oversized t (at.listener key) ~size ~is_rejection:(fun s -> contains s marker)
  | Silent -> Byzantine.silent t (at.listener key)
  | Stall ->
      Byzantine.mid_header_stall t (at.listener key) ~clock:(at.clock_of key) ~step_ns:1_000
        ~prefix:kit.stall_prefix ~is_rejection:kit.rejection ()

(* Spawn the kit's melee — client [i] keyed ["conn-i"], then the real
   clients — and return what a feature waits on: [resolved] (everyone
   but the silent holders, which only a drain cuts), [settled] (everyone)
   and the real clients' summary. *)
let spawn_melee kit ~seed at t =
  for i = 1 to kit.clients do
    Fiber.spawn (fun () -> stimulate kit at t ~key:(Printf.sprintf "conn-%d" i) (kit.melee i))
  done;
  let ok = ref 0 and err = ref 0 in
  let n_real =
    match kit.real with
    | None -> 0
    | Some r ->
        List.iteri
          (fun j key ->
            Fiber.spawn (fun () ->
                let rng = Drbg.create ~seed:(seed + j + 1) in
                match Chan.connect (at.listener key) with
                | exception _ -> incr err
                | ep -> (
                    match r.fetch (at.env_of key) ~rng ep with
                    | true -> incr ok
                    | false | (exception _) -> incr err)))
          r.keys;
        List.length r.keys
  in
  let n_silent =
    List.length (List.filter (fun i -> kit.melee i = Silent) (List.init kit.clients succ))
  in
  let resolved () = Byzantine.total t >= kit.clients - n_silent && !ok + !err >= n_real in
  let settled () = Byzantine.total t = kit.clients in
  let summary () =
    match kit.real with
    | None -> ""
    | Some r -> Printf.sprintf " %s_ok=%d %s_err=%d" r.label !ok r.label !err
  in
  (resolved, settled, summary)

let chan_faults plan prob =
  Fault_plan.rule plan ~site:"chan.read" ~prob [ Fault_plan.Drop; Fault_plan.Reset ];
  Fault_plan.rule plan ~site:"chan.write" ~prob [ Fault_plan.Reset ]

(* ------------------------------------------------------------------ *)
(* Plain: the server under flood, faults and garbage                   *)

let run_plain (type e) (kit : e kit) ~policy ~diff ~faults ~seed =
  let module S = (val kit.serve : Wedge_net.Server.SERVE with type env = e) in
  let plan = Fault_plan.create ~seed () in
  if faults then begin
    chan_faults plan kit.chan_fault;
    Option.iter
      (fun prob -> Fault_plan.rule plan ~site:"physmem.alloc" ~prob [ Fault_plan.Enomem ])
      kit.enomem_fault
  end;
  Fault_plan.disarm plan;
  let k = Kernel.create ~costs:Cost_model.free ~faults:plan () in
  let clock = k.Kernel.clock in
  let env = kit.boot ~seed k in
  let l = Chan.listener ~costs:Cost_model.free ~faults:plan ~backlog:kit.backlog () in
  let r = Reactor.create ~clock () in
  let guard =
    Guard.create ?header_deadline_ns:kit.header_deadline_ns ~reactor:r
      ~max_conns:kit.max_conns ()
  in
  let t = Byzantine.tally () and loris = Byzantine.tally () in
  let at = { listener = (fun _ -> l); clock_of = (fun _ -> clock); env_of = (fun _ -> env) } in
  let real = ref (fun () -> "") in
  checked ~kernel:k ~app:(kit.app env) ~reactor:r ~policy ~diff
    (fun oracle ->
      Oracle.add_guard oracle ~name:(kit.server ^ ".guard") guard;
      Fiber.spawn (fun () -> S.serve_loop ?max_request_bytes:kit.max_request_bytes env guard l);
      Fault_plan.arm plan;
      let resolved, settled, summary = spawn_melee kit ~seed at t in
      real := summary;
      let n_loris =
        match kit.loris with
        | None -> 0
        | Some request ->
            Fiber.spawn (fun () ->
                Byzantine.slow_loris loris l ~clock ~step_ns:1_000 ~request
                  ~is_rejection:kit.rejection);
            1
      in
      Fiber.wait_until ~what:(kit.server ^ " melee resolved") (fun () ->
          resolved () && Byzantine.total loris = n_loris);
      Fault_plan.disarm plan;
      Guard.drain guard l;
      Fiber.wait_until ~what:"silent holders cut" settled)
    (fun () ->
      Printf.sprintf "%s %s%s%s %s%s plan=%s" kit.server (tally_to_string t) (!real ())
        (if kit.loris = None then "" else Printf.sprintf " loris_cut=%d" loris.Byzantine.cut)
        (guard_to_string (Guard.stats guard))
        (counters_summary kit k kit.counters)
        (plan_digest plan))

(* ------------------------------------------------------------------ *)
(* Fault storms: self-healing under injected crashes AND induced hangs.

   On top of the channel/memory faults of the base scenarios, the storm
   plans roll ["fiber.stall"] (a fiber freezes for 20 µs of simulated
   time — far past the guard's idle deadline) and ["cgate.call"] (a
   callgate stalls or crashes mid-call).  The servers run their declared
   supervision trees behind a guard armed with a circuit breaker and an
   idle deadline; the scenario asserts the full self-healing story: every
   hung compartment is cut by its deadline (oracle invariant), the
   listener survives, the breaker closes again once the storm passes
   (heal epilogue), and the oracle sweeps clean — no leaked frame or
   descriptor across any restart, cut, or quarantine. *)

let storm_plan ~pooled ~seed ~faults ~cgates =
  let plan = Fault_plan.create ~seed () in
  if faults then begin
    Fault_plan.rule plan ~site:"chan.read" ~prob:0.04 [ Fault_plan.Drop; Fault_plan.Reset ];
    Fault_plan.rule plan ~site:"chan.write" ~prob:0.04 [ Fault_plan.Reset ];
    Fault_plan.rule plan ~site:"physmem.alloc" ~prob:0.002 [ Fault_plan.Enomem ];
    Fault_plan.rule plan ~site:"fiber.stall" ~prob:0.003 [ Fault_plan.Delay 20_000 ];
    if cgates then
      Fault_plan.rule plan ~site:"cgate.call" ~prob:0.02
        [ Fault_plan.Delay 20_000; Fault_plan.Crash ];
    if pooled then begin
      (* The restore path itself is attackable: stamps crash mid-restore
         (the frozen image and its refcounts must survive pristine — the
         oracle's frozen-frame sweep checks exactly that), and the
         mid-storm freeze probe rolls its own site. *)
      Fault_plan.rule plan ~site:"pool.stamp" ~prob:0.05 [ Fault_plan.Crash ];
      Fault_plan.rule plan ~site:"pool.freeze" ~prob:0.5 [ Fault_plan.Crash ]
    end
  end;
  Fault_plan.disarm plan;
  plan

(* The pooled storms' MTTR claim, made concrete: recovery time differs
   from the fresh-boot storm only by the spawn term, so a twin world
   with the paper's spawn prices armed (Table 2: per-PTE and per-fd
   copy; the flat stamp charge) measures exactly that term for the same
   image size the storm ran with.  Fresh boot pays O(pages); a stamp
   pays the flat [pool_stamp] — the assertion is strict. *)
let spawn_advantage ~image_pages =
  let costs =
    { Cost_model.free with Cost_model.pte_copy = 190; fd_dup = 250; pool_stamp = 950 }
  in
  let k = Kernel.create ~costs () in
  let clock = k.Kernel.clock in
  let app = W.create_app ~image_pages k in
  W.boot app;
  let main = W.main_ctx app in
  let worker _ _ = 0 in
  let fresh_ns = ref 0 and stamp_ns = ref 0 in
  Fiber.run ~clock (fun () ->
      let sc = W.sc_create () in
      W.sc_set_uid sc 99;
      let t0 = Clock.now clock in
      ignore (W.sthread_create main sc worker 0);
      fresh_ns := Clock.now clock - t0;
      let pool_sc = W.sc_create () in
      W.sc_set_uid pool_sc 99;
      let pool = W.Pool.freeze ~name:"storm.pool" main pool_sc in
      let t1 = Clock.now clock in
      ignore (W.Pool.stamp main pool worker 0);
      stamp_ns := Clock.now clock - t1);
  if !stamp_ns >= !fresh_ns then
    raise
      (Oracle.Violation
         (Printf.sprintf "pooled stamp (%d ns) does not beat fresh boot (%d ns)"
            !stamp_ns !fresh_ns));
  (!fresh_ns, !stamp_ns)

(* Mid-storm freeze probe for the pooled storms: with the plan armed,
   ["pool.freeze"] may crash the capture — either way the image registry
   and refcounts must sweep clean, and a successful probe exercises
   [discard]'s decref path under the same storm. *)
let freeze_probe ~pooled main_ctx =
  if not pooled then "-"
  else
    let sc = W.sc_create () in
    match W.Pool.freeze ~name:"storm.probe" main_ctx sc with
    | pool ->
        W.Pool.discard main_ctx pool;
        "ok"
    | exception _ -> "fault"

let pool_summary ~pooled app =
  if not pooled then ""
  else
    Printf.sprintf " pool=%d/%d/%d"
      app.Wedge_core.Engine.pool_freezes app.Wedge_core.Engine.pool_stamps
      app.Wedge_core.Engine.pool_hits

let assert_pool_used ~pooled ~server app =
  if pooled && app.Wedge_core.Engine.pool_hits = 0 then
    raise (Oracle.Violation (server ^ ": pooled storm never stamped a worker"))

(* The deadline timers fire at the reactor tick ([checked]'s [reactor]
   hook, at the first switch after the clock moves), so a hung connection
   is cut within one scheduling step of its deadline.  The oracle
   re-checks between switches too (syscall entries), where a single large
   clock charge (a 20 µs induced stall) can land before the next tick —
   the slack covers exactly that. *)
let storm_deadline_invariant oracle guard =
  Oracle.add_invariant oracle ~name:"guard.cut-by-deadline" (fun () ->
      Guard.deadline_check ~slack_ns:50_000 guard)

let storm_summary ~server ~k ~t ~heal ~guard ~tree =
  Printf.sprintf "%s %s heal=%d %s breaker=%s %s degraded=%d shed=%d plan_armed"
    server (tally_to_string t) heal
    (guard_to_string (Guard.stats guard))
    (Guard.breaker_summary guard)
    (Supervisor.tree_to_string tree)
    (Stats.get k.Kernel.stats (server ^ ".degraded"))
    (Stats.get k.Kernel.stats (server ^ ".shed"))

let storm_melee i = if i mod 4 = 0 then Stall else if i mod 5 = 0 then Half_close else Oneshot

let heal_probe kit ~seed env l =
  match kit.heal with
  | Some probe -> probe env ~seed l
  | None ->
      let probes = Byzantine.tally () in
      fun () -> Byzantine.oneshot probes l ~request:kit.request ~is_rejection:kit.rejection

(* The storm and its pooled form: the same melee and self-healing
   assertions.  [pooled] stamps every worker from the server's snapshot
   pool (stamp faults armed, frozen-frame sweep, spawn advantage
   measured).  The serve path parks on the reactor — deadlines on the
   timer wheel, idle cuts among them, accept bursts
   drained in one wake — and the reactor's interest-set audit is an
   oracle invariant: no waiter whose readiness already holds stays
   parked (lost wakeup), no registration survives on a dead handle, no
   parked fiber lacks one. *)
let run_storm (type e) ~pooled (kit : e kit) ~policy ~diff ~faults ~seed =
  let module S = (val kit.serve : Wedge_net.Server.SERVE with type env = e) in
  let advantage = if pooled then Some (spawn_advantage ~image_pages:kit.image_pages) else None in
  let plan = storm_plan ~pooled ~seed ~faults ~cgates:kit.cgate_faults in
  let k = Kernel.create ~costs:Cost_model.free ~faults:plan () in
  let clock = k.Kernel.clock in
  let env = kit.boot ~seed k in
  let app = kit.app env in
  let l = Chan.listener ~costs:Cost_model.free ~faults:plan ~backlog:kit.backlog () in
  let r = Reactor.create ~clock () in
  let guard =
    Guard.create ~header_deadline_ns:8_000 ~idle_deadline_ns:6_000 ~breaker:true
      ~reactor:r ~max_conns:kit.max_conns ()
  in
  let t = Byzantine.tally () in
  let at = { listener = (fun _ -> l); clock_of = (fun _ -> clock); env_of = (fun _ -> env) } in
  let pool = if pooled then Some (S.pool env) else None in
  let tree = S.supervision_tree ?pool env in
  let node, _, _ = tree in
  let heal = ref 0 in
  let probe_outcome = ref "-" in
  checked ~kernel:k ~app ~sched_faults:plan ~clock ~reactor:r ~policy ~diff
    (fun oracle ->
      Oracle.add_guard oracle ~name:(kit.server ^ ".guard") guard;
      storm_deadline_invariant oracle guard;
      Oracle.add_invariant oracle ~name:"reactor.interest-sets" (fun () ->
          Reactor.self_check r);
      Fiber.spawn (fun () ->
          S.serve_loop ?max_request_bytes:kit.max_request_bytes ~supervision:tree env guard l);
      Fault_plan.arm plan;
      probe_outcome := freeze_probe ~pooled (W.main_ctx app);
      for i = 1 to kit.storm_clients do
        Fiber.spawn (fun () -> stimulate kit at t ~key:"" (storm_melee i))
      done;
      Fiber.wait_until ~what:(kit.server ^ " storm resolved") (fun () ->
          Byzantine.total t = kit.storm_clients);
      Fault_plan.disarm plan;
      heal := heal_breaker ~what:kit.server guard clock (heal_probe kit ~seed env l);
      Guard.drain guard l;
      assert_pool_used ~pooled ~server:kit.server app;
      match Reactor.self_check r with
      | Some msg -> raise (Oracle.Violation (kit.server ^ "_storm: " ^ msg))
      | None -> ())
    (fun () ->
      storm_summary ~server:kit.server ~k ~t ~heal:!heal ~guard ~tree:node
      ^ pool_summary ~pooled app
      ^ (if pooled then Printf.sprintf " freeze2=%s" !probe_outcome else "")
      ^ (match advantage with
        | None -> ""
        | Some (f, s) -> Printf.sprintf " spawn_fresh=%dns spawn_stamp=%dns" f s)
      ^
      let rs = Reactor.stats r in
      Printf.sprintf " reactor_parks=%d reactor_wakes=%d reactor_timers=%d" rs.Reactor.parks
        rs.Reactor.wakeups rs.Reactor.timer_fires)

(* ------------------------------------------------------------------ *)
(* Sharded scenarios: N kernels behind a hashed front door, with the
   cross-shard shootdown fabric under the oracle.                      *)

(* [checked], multikernel edition: one oracle per shard (each wired to
   its kernel's syscalls and fed a sampled stream of switches), the
   fabric's link handlers started before and drained after [main], and
   the end-of-run sweep replaced by {!Oracle.global_sweep} — every
   shard's full refcount/rlimit/TLB/smalloc sweep plus the fabric's
   gtag audit — and a cross-reactor registration audit. *)
let checked_sharded ~fab ~policy ~diff main summarize =
  let shards = Shard.shards fab in
  let oracles =
    Array.map
      (fun (s : Shard.shard) ->
        let o = Oracle.create s.Shard.kernel in
        Oracle.set_app o s.Shard.app;
        o)
      shards
  in
  let refvms =
    if diff then
      Array.to_list (Array.map (fun (s : Shard.shard) -> Refvm.create s.Shard.kernel) shards)
    else []
  in
  Array.iter Oracle.install_syscall_hook oracles;
  List.iter Refvm.arm refvms;
  let on_switch =
    let fhook = Shard.hook fab in
    let ohooks = Array.map Oracle.hook oracles in
    fun () ->
      fhook ();
      Array.iter (fun h -> h ()) ohooks
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter Oracle.remove_syscall_hook oracles;
      List.iter Refvm.disarm refvms)
    (fun () ->
      Fiber.run ~policy ~on_switch ~on_idle:(Shard.idle fab) (fun () ->
          Shard.start fab;
          main oracles;
          Shard.stop fab);
      Oracle.global_sweep ~fabric:fab (Array.to_list oracles);
      List.iter Refvm.verify refvms;
      (match Reactor.self_check_multi (Shard.reactors fab) with
      | Some msg -> raise (Oracle.Violation ("sharded reactors: " ^ msg))
      | None -> ());
      Printf.sprintf "%s checks=%d diff_events=%s" (summarize ())
        (Array.fold_left (fun acc o -> acc + Oracle.checks_run o) 0 oracles)
        (if diff then
           string_of_int (List.fold_left (fun acc rv -> acc + Refvm.events rv) 0 refvms)
         else "-"))

(* Mid-run global-revocation exercise: a gtag replicated on every shard,
   read through a recycled callgate on shard 1 — whose pooled sthread
   keeps its address space between invocations, the stale-TLB window —
   then deleted from shard 0.  [gtag_delete] must not return before the
   cross-shard shootdown revoked shard 1's replica, so the re-invocation
   faults (join returns -1) instead of reading stale frames: the fault
   is contained to the caller, never served to a client. *)
let gtag_epilogue ~what fab =
  let s1 = Shard.shard fab 1 in
  let main1 = W.main_ctx s1.Shard.app in
  let g = Shard.gtag_new ~name:"secret" ~pages:1 fab in
  let r1 = Shard.replica g ~sid:1 in
  let addr = W.smalloc main1 16 r1 in
  W.write_string main1 addr "per-conn secret!";
  let sc = W.sc_create () in
  let cgsc = W.sc_create () in
  W.sc_mem_add cgsc r1 Prot.R;
  let gate =
    W.sc_cgate_add ~recycled:true main1 sc ~name:"peek"
      ~entry:(fun gctx ~trusted:_ ~arg:_ -> W.read_u8 gctx addr)
      ~cgsc ~trusted:0
  in
  let invoke () =
    W.sthread_join main1
      (W.sthread_create main1 sc
         (fun ctx _ -> W.cgate ctx gate ~perms:(W.sc_create ()) ~arg:0)
         0)
  in
  if invoke () <> Char.code 'p' then
    raise (Oracle.Violation (what ^ ": live gtag replica unreadable on shard 1"));
  Shard.gtag_delete fab ~sid:0 g;
  if Shard.gtag_live g then
    raise (Oracle.Violation (what ^ ": gtag still live after delete"));
  if invoke () <> -1 then
    raise
      (Oracle.Violation (what ^ ": stale replica readable after global revocation"));
  Printf.sprintf "gtag=revoked xshoot=%d" (Shard.cross_shard_shootdowns fab)

let sharded_shards = 2

let shard_stats_summary ~prefix fab front =
  String.concat " "
    (List.mapi
       (fun i (s : Shard.shard) ->
         Printf.sprintf "s%d[%s deg=%d rej=%d]" i
           (guard_to_string (Guard.stats (Shard.front_guard front i)))
           (Stats.get s.Shard.kernel.Kernel.stats (prefix ^ ".degraded"))
           (Stats.get s.Shard.kernel.Kernel.stats (prefix ^ ".rejected")))
       (Array.to_list (Shard.shards fab)))

let run_sharded (type e) (kit : e kit) ~policy ~diff ~faults ~seed =
  let module S = (val kit.serve : Wedge_net.Server.SERVE with type env = e) in
  let plan = Fault_plan.create ~seed () in
  if faults then chan_faults plan kit.chan_fault;
  Fault_plan.disarm plan;
  let envs =
    Array.init sharded_shards (fun i ->
        kit.boot ~seed:(seed + i)
          (Kernel.create ~costs:Cost_model.free ~faults:plan ~shard:i ()))
  in
  let fab =
    Shard.create
      (Array.map
         (fun env ->
           let app = kit.app env in
           (W.kernel app, app))
         envs)
  in
  let front =
    Shard.front ~costs:Cost_model.free ~faults:plan ~backlog:kit.backlog
      ?header_deadline_ns:kit.header_deadline_ns ~max_conns:kit.max_conns fab
  in
  (* Each client hashes to its home shard, as the front door routes it. *)
  let at =
    {
      listener = (fun key -> Shard.front_listener front (Shard.route fab ~key));
      clock_of = (fun key -> (Shard.shard fab (Shard.route fab ~key)).Shard.kernel.Kernel.clock);
      env_of = (fun key -> envs.(Shard.route fab ~key));
    }
  in
  let t = Byzantine.tally () in
  let name = kit.server ^ "_sharded" in
  let real = ref (fun () -> "") in
  let revocation = ref "" in
  checked_sharded ~fab ~policy ~diff
    (fun oracles ->
      Array.iteri
        (fun i o ->
          Oracle.add_guard o
            ~name:(Printf.sprintf "%s.guard.%d" kit.server i)
            (Shard.front_guard front i))
        oracles;
      S.serve_sharded ?max_request_bytes:kit.max_request_bytes envs front;
      Fault_plan.arm plan;
      let resolved, settled, summary = spawn_melee kit ~seed at t in
      real := summary;
      Fiber.wait_until ~what:(name ^ " melee resolved") resolved;
      Fault_plan.disarm plan;
      revocation := gtag_epilogue ~what:name fab;
      Shard.front_drain front;
      Fiber.wait_until ~what:"silent holders cut" settled)
    (fun () ->
      Printf.sprintf "%s %s%s %s %s plan=%s" name (tally_to_string t) (!real ())
        (shard_stats_summary ~prefix:kit.server fab front)
        !revocation (plan_digest plan))

(* ------------------------------------------------------------------ *)
(* Synthesized least-privilege profiles: record → enforce (§3.4, §7)   *)

(* Each synth scenario runs the same clean workload twice, in fresh
   worlds.  First in Record mode under a fixed deterministic schedule —
   the synthesized profile must be a pure function of the seed, never of
   the explored schedule, or the exploration digest could not be stable.
   Then in Enforce mode under the explored schedule, with the profile
   replacing every hand-written security context and the oracle holding
   the "installed ⊇ observed" invariant at every sampled switch.  No
   fault plan is armed in either phase: a fault-free enforced run under
   the minimal profile is exactly the claim being verified (tightening
   any single grant is the matching negative, exercised in
   test_synth.ml). *)

let accept_next l =
  match Chan.accept l with Some ep -> ep | None -> failwith "synth: listener down"

let profile_digest ptext = Digest.to_hex (Digest.string ptext)

(* One deterministic (round-robin) run of the kit's synthesis workload
   with [synth] threaded through a fresh world; returns (succeeded,
   summary). *)
let synth_run kit ~seed synth =
  let k = Kernel.create ~costs:Cost_model.free () in
  let run, result = kit.synth_workload ~seed (kit.boot ~seed k) synth in
  Fiber.run ~policy:Fiber.Round_robin run;
  result ()

(* Record phase: deterministic schedule, fresh world, assert the clean
   workload actually succeeded (a profile synthesized from a broken run
   would be vacuously tight). *)
let record kit ~seed =
  let synth = Synth.create ~name:kit.server Synth.Record in
  let ok, summary = synth_run kit ~seed (Some synth) in
  if not ok then
    failwith (Printf.sprintf "%s_synth: record run failed (%s)" kit.server summary);
  Synth.synthesize synth

let run_synth kit ~policy ~diff ~faults:_ ~seed =
  let name = kit.server in
  let profile = record kit ~seed in
  let ptext = Synth.Profile.print profile in
  (match Synth.Profile.parse ptext with
  | Ok p when Synth.Profile.equal p profile -> ()
  | _ -> failwith (name ^ "_synth: synthesized profile does not round-trip"));
  let k = Kernel.create ~costs:Cost_model.free () in
  let env = kit.boot ~seed k in
  let synth = Synth.create ~name (Synth.Enforce profile) in
  let run, result = kit.synth_workload ~seed env (Some synth) in
  let denials () = Synth.denials synth in
  checked ~kernel:k ~app:(kit.app env) ~policy ~diff
    (fun oracle ->
      Oracle.add_invariant oracle ~name:("synth." ^ name ^ ".superset") (Synth.self_check synth);
      run ();
      match result () with
      | true, _ -> ()
      | false, summary ->
          raise
            (Oracle.Violation
               (Printf.sprintf "%s_synth: enforced run failed (%s; denials: %s)" name summary
                  (String.concat "; " (List.map fst (denials ()))))))
    (fun () ->
      Printf.sprintf "%s_synth %s denials=%d%s profile=%s" name
        (snd (result ()))
        (List.length (denials ()))
        (counters_summary kit k kit.synth_counters)
        (profile_digest ptext))

(* ------------------------------------------------------------------ *)
(* The three kits                                                      *)

let pop3_kit =
  let rejection s = contains s "-ERR busy" in
  let request = "USER alice\r\nPASS wonderland\r\nSTAT\r\nQUIT\r\n" in
  {
    server = "pop3";
    doc = "partitioned POP3 under flood, faults and slow-loris";
    serve = (module Wedge_pop3.Pop3_wedge);
    boot =
      (fun ~seed:_ k ->
        Wedge_pop3.Pop3_env.install k Wedge_pop3.Pop3_env.default_users;
        let app = W.create_app ~image_pages:60 k in
        W.boot app;
        W.main_ctx app);
    app = W.app_of;
    image_pages = 60;
    max_request_bytes = None;
    backlog = 8;
    max_conns = 4;
    header_deadline_ns = Some 5_000;
    chan_fault = 0.03;
    enomem_fault = Some 0.002;
    cgate_faults = true;
    request;
    half_close = "USER alice\r\nQUIT\r\n";
    stall_prefix = "USER ali";
    rejection;
    melee =
      (fun i ->
        if i mod 4 = 0 then Half_close
        else if i mod 7 = 0 then Oversized (2_000, "too long")
        else Oneshot);
    clients = 16;
    loris = Some "USER alice\r\nQUIT\r\n";
    real = None;
    storm_clients = 12;
    heal = None;
    counters = [ "degraded" ];
    (* No client RNG: the seed only names the run. *)
    synth_workload =
      (fun ~seed:_ main synth ->
        let t = Byzantine.tally () in
        let run () =
          let l = Chan.listener ~costs:Cost_model.free ~backlog:8 () in
          let session request =
            Fiber.spawn (fun () -> Byzantine.oneshot t l ~request ~is_rejection:rejection);
            ignore (Wedge_pop3.Pop3_wedge.serve_connection ?synth main (accept_next l))
          in
          session "USER alice\r\nPASS wonderland\r\nSTAT\r\nLIST\r\nRETR 1\r\nQUIT\r\n";
          Fiber.wait_until (fun () -> Byzantine.total t >= 1);
          session request;
          Fiber.wait_until (fun () -> Byzantine.total t >= 2);
          Chan.shutdown l
        in
        (run, fun () -> (t.Byzantine.completed = 2, tally_to_string t)));
    synth_counters = [ "degraded" ];
  }

let httpd_kit =
  let module Env = Wedge_httpd.Httpd_env in
  let module Client = Wedge_httpd.Https_client in
  let get ?resume env ~rng ep =
    Client.get ?resume ~rng ~pinned:env.Env.priv.Rsa.pub ~path:"/index.html" ep
  in
  let served (r : Client.result) =
    match r.Client.response with
    | Some resp -> resp.Wedge_httpd.Http.status = 200
    | None -> false
  in
  {
    server = "httpd";
    doc = "TLS httpd under garbage handshakes, faults and real clients";
    serve = (module Wedge_httpd.Httpd_simple);
    boot = (fun ~seed k -> Env.install ~image_pages:60 ~seed k);
    app = (fun env -> env.Env.app);
    image_pages = 60;
    max_request_bytes = Some 4096;
    backlog = 8;
    max_conns = 4;
    header_deadline_ns = None;
    chan_fault = 0.02;
    enomem_fault = Some 0.001;
    cgate_faults = true;
    (* Plaintext HTTP at a TLS endpoint: handshake garbage the worker must
       contain. *)
    request = "GET /index.html HTTP/1.1\r\n\r\n";
    half_close = "GET / HTTP/1.0\r\n\r\n";
    (* A truncated ClientHello frame (header claims 256 bytes, body never
       arrives): the worker blocks mid-record, and only hang detection
       can reclaim the slot. *)
    stall_prefix = "h\001\000partial-hello";
    rejection = (fun s -> contains s "503");
    melee =
      (fun i -> if i mod 3 = 0 then Half_close else if i mod 5 = 0 then Silent else Oneshot);
    clients = 8;
    loris = None;
    real =
      Some
        {
          label = "tls";
          keys = [ "alice"; "bob" ];
          fetch = (fun env ~rng ep -> served (get env ~rng ep));
        };
    storm_clients = 12;
    heal = None;
    counters = [ "degraded"; "rejected" ];
    (* Two TLS fetches, the second resuming the first's session, so all
       three callgate operations (new session, premaster, resume) run. *)
    synth_workload =
      (fun ~seed env synth ->
        let ok = ref 0 and errors = ref 0 in
        let run () =
          let l = Chan.listener ~costs:Cost_model.free ~backlog:8 () in
          let session = ref None in
          let fetch i resume =
            let rng = Drbg.create ~seed:(seed + i) in
            match Chan.connect l with
            | exception _ -> incr errors
            | ep -> (
                match get ?resume env ~rng ep with
                | r when served r ->
                    session := r.Client.session;
                    incr ok
                | _ | (exception _) -> incr errors)
          in
          Fiber.spawn (fun () -> fetch 1 None);
          ignore (Wedge_httpd.Httpd_simple.serve_connection ?synth env (accept_next l));
          (* Let client 1 finish before client 2 starts: the session it
             stored is what makes fetch 2 exercise the resumption path on
             every schedule. *)
          Fiber.wait_until (fun () -> !ok + !errors >= 1);
          Fiber.spawn (fun () -> fetch 2 !session);
          ignore (Wedge_httpd.Httpd_simple.serve_connection ?synth env (accept_next l));
          Fiber.wait_until (fun () -> !ok + !errors >= 2);
          Chan.shutdown l
        in
        (run, fun () -> (!ok = 2, Printf.sprintf "served=%d errors=%d" !ok !errors)));
    synth_counters = [];
  }

let sshd_kit =
  let module Env = Wedge_sshd.Sshd_env in
  let module Client = Wedge_sshd.Ssh_client in
  let login env ~rng ep =
    Client.login ~rng ~pinned_rsa:env.Env.host_rsa.Rsa.pub
      ~pinned_dsa:env.Env.host_dsa.Wedge_crypto.Dsa.pub ~user:"alice"
      (Client.Password "wonderland") ep
  in
  {
    server = "sshd";
    doc = "fork-per-connection sshd privsep under protocol garbage";
    serve = (module Wedge_sshd.Sshd_privsep);
    boot = (fun ~seed k -> Env.install ~image_pages:40 ~seed k);
    app = (fun env -> env.Env.app);
    image_pages = 40;
    max_request_bytes = None;
    backlog = 6;
    max_conns = 3;
    header_deadline_ns = None;
    chan_fault = 0.02;
    enomem_fault = None;
    (* No callgates on the privsep path: hangs come from fiber stalls. *)
    cgate_faults = false;
    request = "SSH-2.0-chaos\r\nnot-a-kexinit\r\n";
    half_close = "SSH-2.0-chaos\r\n\r\n";
    (* A truncated wire frame: the header claims a 256-byte payload, so
       the slave blocks mid-message — only the idle deadline's hang cut
       (which cancels the serve fiber) can reclaim it.
       (A bad leading byte like a raw "SSH-2.0-" banner fails fast
       instead of hanging.) *)
    stall_prefix = "D\001\000SSH-2.0-cha";
    rejection = (fun _ -> false);
    melee = (fun i -> if i mod 3 = 0 then Half_close else Oneshot);
    clients = 8;
    loris = None;
    real = None;
    storm_clients = 9;
    (* The healing probe is a real SSH login: garbage cannot prove the
       backend healthy, a key exchange + authentication can. *)
    heal =
      Some
        (fun env ~seed l ->
          let probe_n = ref 0 in
          fun () ->
            incr probe_n;
            match Chan.connect l with
            | exception _ -> ()
            | ep -> (
                let rng = Drbg.create ~seed:(seed + 0x5AFE + !probe_n) in
                match login env ~rng ep with
                | Ok conn -> Client.close conn
                | Error _ | (exception _) -> ( try Chan.close ep with _ -> ())));
    counters = [ "degraded"; "rejected" ];
    (* One password login against the Wedge-partitioned sshd. *)
    synth_workload =
      (fun ~seed env synth ->
        let ok = ref 0 in
        let run () =
          let l = Chan.listener ~costs:Cost_model.free ~backlog:4 () in
          let finished = ref 0 in
          Fiber.spawn (fun () ->
              Fun.protect
                ~finally:(fun () -> incr finished)
                (fun () ->
                  let rng = Drbg.create ~seed:(seed + 11) in
                  match Chan.connect l with
                  | exception _ -> ()
                  | ep -> (
                      match login env ~rng ep with
                      | Ok conn ->
                          incr ok;
                          Client.close conn
                      | Error _ -> ())));
          ignore (Wedge_sshd.Sshd_wedge.serve_connection ?synth env (accept_next l));
          Fiber.wait_until (fun () -> !finished >= 1);
          Chan.shutdown l
        in
        (run, fun () -> (!ok = 1, Printf.sprintf "ok=%d" !ok)));
    synth_counters = [];
  }

(* ------------------------------------------------------------------ *)
(* The matrix                                                          *)

type any_kit = Kit : 'env kit -> any_kit

let kits = [ Kit pop3_kit; Kit httpd_kit; Kit sshd_kit ]

type feature = {
  suffix : string;
  about : 'env. 'env kit -> string;
  run : 'env. 'env kit -> policy:Fiber.policy -> diff:bool -> faults:bool -> seed:int -> string;
}

let features =
  [
    { suffix = ""; about = (fun kit -> kit.doc); run = run_plain };
    {
      suffix = "_storm";
      about =
        (fun kit ->
          kit.server
          ^ " self-healing: fault storm + induced hangs, idle deadline, breaker, tree, \
             wake audit");
      run = (fun kit -> run_storm ~pooled:false kit);
    };
    {
      suffix = "_pool_storm";
      about =
        (fun kit ->
          kit.server ^ " storm with pooled O(1) restamps, stamp faults, frozen-frame sweep");
      run = (fun kit -> run_storm ~pooled:true kit);
    };
    {
      suffix = "_sharded";
      about =
        (fun kit ->
          Printf.sprintf "%d-shard %s behind the hashed front door, cross-shard gtag revocation"
            sharded_shards kit.server);
      run = run_sharded;
    };
    {
      suffix = "_synth";
      about =
        (fun kit ->
          Printf.sprintf "record → synthesize → enforce a least-privilege %s profile"
            kit.server);
      run = run_synth;
    };
  ]

let all =
  List.concat_map
    (fun f ->
      List.map
        (fun (Kit kit) ->
          { s_name = kit.server ^ f.suffix; s_doc = f.about kit; s_run = f.run kit })
        kits)
    features
  @ [
      {
        s_name = "racy";
        s_doc = "deliberate lost-update race (the explorer must catch it)";
        s_run = run_racy;
      };
    ]

let find name = List.find_opt (fun s -> s.s_name = name) all
let names () = List.map (fun s -> s.s_name) all

(* The synthesis pipeline by app name, for [wedge_cli synth] and the
   tests. *)
let synth_apps = List.map (fun (Kit kit) -> kit.server) kits

let kit_named app =
  match List.find_opt (fun (Kit kit) -> kit.server = app) kits with
  | Some k -> k
  | None -> invalid_arg ("Scenarios: unknown app " ^ app)

let synth_record ~app ~seed =
  let (Kit kit) = kit_named app in
  record kit ~seed

let synth_rerun ~app ~seed mode =
  let (Kit kit) = kit_named app in
  let synth = Synth.create ~name:app mode in
  let ok, summary = synth_run kit ~seed (Some synth) in
  (ok, summary, synth)
