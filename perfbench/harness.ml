(* Shared machinery for the three closed-loop workloads: the seeded input
   mix, the in-memory span recorder, the scheduler-hook wrappers, the
   closed-loop client driver and the per-round record every workload
   returns.  Nothing here touches [lib/]; spans are recorded around the
   calls the benchmark makes into each layer. *)

module Clock = Wedge_sim.Clock
module Cost_model = Wedge_sim.Cost_model
module Fiber = Wedge_sim.Fiber
module Reactor = Wedge_sim.Reactor
module Metrics = Wedge_sim.Metrics
module Kernel = Wedge_kernel.Kernel
module Physmem = Wedge_kernel.Physmem
module Chan = Wedge_net.Chan
module Guard = Wedge_net.Guard
module Shard = Wedge_net.Shard
module W = Wedge_core.Wedge
module Tag_cache = Wedge_mem.Tag_cache

let host_now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Seeded inputs                                                       *)

(* A local LCG, as in [Bench_util.skewed_classes]: no [Random], so the
   input stream is identical across hosts and OCaml versions, and the
   simulated metrics it produces repeat exactly. *)
type lcg = { mutable st : int }

let lcg seed = { st = ((seed * 2654435761) + 1) land 0x3fffffff }

let next g bound =
  g.st <- ((g.st * 1103515245) + 12345) land 0x3fffffff;
  (g.st lsr 4) mod bound

(* Stratified class assignment for [n] items: class [i+1] gets exactly
   [max 1 (n * per_mille_i / 1000)] items, class 0 the rest, then a
   Fisher-Yates shuffle under the seed.  Exact counts mean a second seed
   moves only the order, so percentiles stay comparable across seeds
   while the schedule (and every latency sample) changes. *)
let stratified ~seed ~n per_mille =
  let a = Array.make n 0 in
  let pos = ref 0 in
  List.iteri
    (fun i pm ->
      for _ = 1 to max 1 (n * pm / 1000) do
        a.(!pos) <- i + 1;
        incr pos
      done)
    per_mille;
  let g = lcg seed in
  for i = n - 1 downto 1 do
    let j = next g (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Printable seeded bytes: page bodies and upload payloads differ per
   seed, so a second seed changes the bytes every check compares. *)
let seeded_string ~seed n =
  let g = lcg seed in
  String.init n (fun _ -> Char.chr (33 + next g 94))

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

type span = {
  sp_id : int;
  sp_parent : int;  (** -1 at the root *)
  sp_name : string;
  sp_conn : int;  (** connection id, -1 outside a connection *)
  sp_sim0 : int;
  sp_sim1 : int;
  sp_host0 : float;
  sp_host1 : float;
}

type tracer = { on : bool; mutable spans : span list; mutable next_id : int }

let tracer on = { on; spans = []; next_id = 0 }
let no_sim () = 0

(* [with_span tr ~name ~now f] runs [f id], recording one span on the
   host clock and on the simulated clock [now] reads.  Off, it costs one
   branch and passes [-1] as the id. *)
let with_span tr ~name ?(conn = -1) ?(parent = -1) ~now f =
  if not tr.on then f (-1)
  else begin
    let id = tr.next_id in
    tr.next_id <- id + 1;
    let sim0 = now () and host0 = host_now () in
    let record () =
      tr.spans <-
        {
          sp_id = id;
          sp_parent = parent;
          sp_name = name;
          sp_conn = conn;
          sp_sim0 = sim0;
          sp_sim1 = now ();
          sp_host0 = host0;
          sp_host1 = host_now ();
        }
        :: tr.spans
    in
    match f id with
    | v ->
        record ();
        v
    | exception e ->
        record ();
        raise e
  end

(* ------------------------------------------------------------------ *)
(* Set-up timing                                                       *)

(* The three set-up phases [setup.*] reports; they partition [setup_s]. *)
type setup = { mutable keygen : float; mutable boot : float; mutable fabric : float }

let setup_total s = s.keygen +. s.boot +. s.fabric

(* Build a workload's world [setup_reps] times and keep the last.  The
   round's set-up time is the mean over the builds: one build takes well
   under a millisecond for some workloads, too short to time alone
   against host noise, and the median over rounds of these means is
   [setup_s]. *)
let setup_reps = 32

let build f =
  let sum = { keygen = 0.; boot = 0.; fabric = 0. } in
  let rec go i =
    let s = { keygen = 0.; boot = 0.; fabric = 0. } in
    (* Each build starts from a settled heap, as at process start. *)
    Gc.full_major ();
    let v = f s in
    sum.keygen <- sum.keygen +. s.keygen;
    sum.boot <- sum.boot +. s.boot;
    sum.fabric <- sum.fabric +. s.fabric;
    if i = setup_reps then v else go (i + 1)
  in
  let v = go 1 in
  let n = float_of_int setup_reps in
  (v, { keygen = sum.keygen /. n; boot = sum.boot /. n; fabric = sum.fabric /. n })

let timed tr setup phase name f =
  with_span tr ~name ~now:no_sim (fun _ ->
      let t0 = host_now () in
      let v = f () in
      let dt = host_now () -. t0 in
      (match phase with
      | `Keygen -> setup.keygen <- setup.keygen +. dt
      | `Boot -> setup.boot <- setup.boot +. dt
      | `Fabric -> setup.fabric <- setup.fabric +. dt);
      v)

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)

(* Counter snapshot over several shards, read through the public stats
   functions: one [Wedge.register_metrics] registry per app (kernel
   stats, live + reaped TLB counters, tag-cache counters), summed by key.
   One registry per app because a registry keys its sources by name. *)
let snapshot apps =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun app ->
      let m = Metrics.create () in
      W.register_metrics m app;
      List.iter
        (fun (k, v) ->
          Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
        (Metrics.snapshot m))
    apps;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let get l k = Option.value ~default:0 (List.assoc_opt k l)

(* Frames in use minus those the userland tag cache holds.  Its growth
   over a drained load is the leak: keeping deleted tags' frames for
   reuse is the cache's job (§4.1), so they are not counted. *)
let frames_outside_cache apps =
  List.fold_left
    (fun acc app ->
      let cached =
        List.fold_left
          (fun a e -> a + List.length e.Tag_cache.frames)
          0
          (Tag_cache.entries app.Wedge_core.Engine.tag_cache)
      in
      acc + Physmem.frames_in_use (W.kernel app).Kernel.pm - cached)
    0 apps

(* ------------------------------------------------------------------ *)
(* Closed-loop load                                                    *)

type verdict = Good | Wrong of string

type load = {
  mutable lat : int list;  (** simulated ns per finished connection *)
  mutable n_failed : int;
  mutable n_wrong : int;
  mutable msgs : string list;
  mutable served : int;
  mutable switches : int;
  mutable idle_host : float;
}

let note l m = if List.length l.msgs < 5 then l.msgs <- m :: l.msgs

(* Spawn one fiber per client; each runs its connection ids one after
   another — the next connect only after the previous connection closed.
   Latency is read on the connection's home-shard clock.  Returns a
   counter of clients still running. *)
let spawn_clients tr load ~clients ~clock_of ~run_conn =
  let running = ref 0 in
  List.iteri
    (fun client (sid, conns) ->
      incr running;
      let clock = clock_of sid in
      let now () = Clock.now clock in
      Fiber.spawn (fun () ->
          List.iter
            (fun c ->
              let s0 = Clock.now clock in
              let v =
                with_span tr ~name:"conn" ~conn:c ~now (fun span ->
                    match run_conn ~sid ~client ~conn:c ~span ~now with
                    | v -> Ok v
                    | exception Chan.Refused m -> Error ("refused: " ^ m)
                    | exception Failure m -> Error m)
              in
              load.lat <- (Clock.now clock - s0) :: load.lat;
              (match v with
              | Ok Good -> ()
              | Ok (Wrong m) ->
                  load.n_wrong <- load.n_wrong + 1;
                  note load (Printf.sprintf "conn %d: wrong reply: %s" c m)
              | Error m ->
                  load.n_failed <- load.n_failed + 1;
                  note load (Printf.sprintf "conn %d: failed: %s" c m));
              load.served <- load.served + 1)
            conns;
          decr running))
    clients;
  running

(* Round-robin a connection list over [k] clients, keeping order. *)
let deal k conns =
  let buckets = Array.make k [] in
  List.iteri (fun i c -> buckets.(i mod k) <- c :: buckets.(i mod k)) conns;
  Array.to_list (Array.map List.rev buckets)

(* Accept until the listener shuts down, serving each connection in its
   own fiber.  [active] counts the loop itself plus every connection
   still being served; it starts at 1. *)
let accept_loop listener active serve =
  Fiber.spawn (fun () ->
      let rec loop () =
        match Chan.accept listener with
        | None -> ()
        | Some ep ->
            incr active;
            Fiber.spawn (fun () -> Fun.protect ~finally:(fun () -> decr active) (fun () -> serve ep));
            loop ()
      in
      loop ();
      decr active)

(* A client-side operation span: [app.<svc>.<op>] on the home clock. *)
let op tr ~name ~conn ~parent ~now f = with_span tr ~name ~conn ~parent ~now (fun _ -> f ())

(* ------------------------------------------------------------------ *)
(* One round                                                           *)

(* What a workload built in set-up, for the post-run reads and checks. *)
type world = {
  apps : W.app list;  (** one per shard *)
  reactors : Reactor.t list;
  guards : Guard.t list;
  listeners : Chan.listener list;
  fabric : Shard.t option;
  expect_xshoot : int;
}

type round = {
  attempted : int;
  failed : int;  (** refused or errored connections *)
  wrong : int;  (** connections whose replies failed verification *)
  failures : string list;  (** first few failure messages *)
  latencies : int array;  (** sorted, simulated ns, connect to close *)
  makespan : int;  (** slowest shard's simulated span *)
  sim_total : int;  (** simulated ns summed over shards *)
  counts : (string * int) list;  (** deterministic counts, by name *)
  violations : string list;  (** post-run invariants that failed *)
  setup : setup;  (** mean over the round's builds *)
  load_s : float;  (** host seconds of the load phase *)
  alloc_words : float;  (** minor words allocated during the load *)
  idle_s : float;  (** host seconds inside the scheduler's on_idle *)
  top_heap_words : int;  (** the process's peak major heap after this round *)
  spans : span list;
}

(* Run the load phase as one [Fiber.run] and read everything the round
   reports.  [main load] is the first fiber: it starts the servers and
   clients and returns once they have drained.  The hooks count context
   switches and time [on_idle] (a span each when tracing) around the
   layer's own [on_switch]/[on_idle]. *)
let measure tr setup w ~attempted ~on_switch ~on_idle main =
  let clocks = List.map (fun app -> (W.kernel app).Kernel.clock) w.apps in
  let sim_sum () = List.fold_left (fun a c -> a + Clock.now c) 0 clocks in
  let load =
    { lat = []; n_failed = 0; n_wrong = 0; msgs = []; served = 0; switches = 0; idle_host = 0. }
  in
  let on_switch () =
    load.switches <- load.switches + 1;
    on_switch ()
  in
  let on_idle () =
    with_span tr ~name:"sched.on_idle" ~now:sim_sum (fun _ ->
        let t0 = host_now () in
        let r = on_idle () in
        load.idle_host <- load.idle_host +. (host_now () -. t0);
        r)
  in
  let before = snapshot w.apps and frames0 = frames_outside_cache w.apps in
  let t0 = List.map Clock.now clocks in
  Gc.full_major ();
  let w0 = Gc.minor_words () and h0 = host_now () in
  with_span tr ~name:"load" ~now:sim_sum (fun _ ->
      Fiber.run ~on_switch ~on_idle (fun () -> main load));
  let load_s = host_now () -. h0 and alloc_words = Gc.minor_words () -. w0 in
  let spans = List.map2 (fun c t -> Clock.now c - t) clocks t0 in
  let after = snapshot w.apps in
  let d = List.map (fun (k, v) -> (k, v - get before k)) after in
  let leaked = frames_outside_cache w.apps - frames0 in
  let xshoot = match w.fabric with Some f -> Shard.cross_shard_shootdowns f | None -> 0 in
  let faults = get d "fault.compartment" in
  let rsum f = List.fold_left (fun a r -> a + f (Reactor.stats r)) 0 w.reactors in
  let gsum f = List.fold_left (fun a g -> a + f (Guard.stats g)) 0 w.guards in
  let counts =
    d
    @ [
        ("frames_leaked", leaked);
        ("xshard_shootdowns", xshoot);
        ( "guard_rejected",
          gsum (fun s ->
              s.Guard.s_rejected_busy + s.Guard.s_rejected_draining + s.Guard.s_shed
              + s.Guard.s_timed_out) );
        ("refused", List.fold_left (fun a l -> a + Chan.refused l) 0 w.listeners);
        ("reactor_parks", rsum (fun s -> s.Reactor.parks));
        ("reactor_wakeups", rsum (fun s -> s.Reactor.wakeups));
        ("switches", load.switches);
      ]
  in
  let check name = Option.map (fun m -> name ^ ": " ^ m) in
  let violations =
    List.filter_map Fun.id
      ([
         (if leaked <> 0 then Some (Printf.sprintf "frames leaked: %d" leaked) else None);
         (if faults <> 0 then Some (Printf.sprintf "compartment faults: %d" faults) else None);
         (if xshoot <> w.expect_xshoot then
            Some
              (Printf.sprintf "cross-shard shootdowns: %d, expected %d" xshoot w.expect_xshoot)
          else None);
         check "Reactor.self_check_multi" (Reactor.self_check_multi w.reactors);
         (match w.fabric with Some f -> check "Shard.self_check" (Shard.self_check f) | None -> None);
         (if load.served <> attempted then
            Some (Printf.sprintf "served %d of %d connections" load.served attempted)
          else None);
       ]
      @ List.map (fun g -> check "Guard.self_check" (Guard.self_check g)) w.guards)
  in
  let latencies = Array.of_list load.lat in
  Array.sort compare latencies;
  {
    attempted;
    failed = load.n_failed;
    wrong = load.n_wrong;
    failures = List.rev load.msgs;
    latencies;
    makespan = List.fold_left max 0 spans;
    sim_total = List.fold_left ( + ) 0 spans;
    counts;
    violations;
    setup;
    load_s;
    alloc_words;
    idle_s = load.idle_host;
    top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words;
    spans = tr.spans;
  }

(* The two single-kernel workloads: one kernel and its server env, a
   benchmark-owned accept loop on a reactor-attached listener serving
   each connection with [serve env], and [clients] closed-loop clients
   sharing [conns] connections. *)
let single_kernel tr ~install ~app_of ~serve ~clients ~conns ~run_conn =
  let (k, env, reactor, listener), setup =
    build (fun setup ->
        let k =
          timed tr setup `Boot "setup.kernel" (fun () ->
              Kernel.create ~costs:Cost_model.default ())
        in
        let env = timed tr setup `Keygen "setup.env" (fun () -> install k) in
        timed tr setup `Fabric "setup.fabric" (fun () ->
            let reactor = Reactor.create ~clock:k.Kernel.clock () in
            let listener =
              Chan.listener ~clock:k.Kernel.clock ~costs:Cost_model.default ~backlog:64 ()
            in
            Chan.attach_listener reactor listener;
            (k, env, reactor, listener)))
  in
  let world =
    {
      apps = [ app_of env ];
      reactors = [ reactor ];
      guards = [];
      listeners = [ listener ];
      fabric = None;
      expect_xshoot = 0;
    }
  in
  let all = deal clients (List.init conns Fun.id) in
  measure tr setup world ~attempted:conns ~on_switch:(Reactor.hook reactor)
    ~on_idle:(Reactor.idle reactor) (fun load ->
      let active = ref 1 in
      accept_loop listener active (serve env);
      let running =
        spawn_clients tr load
          ~clients:(List.map (fun l -> (0, l)) all)
          ~clock_of:(fun _ -> k.Kernel.clock)
          ~run_conn:(run_conn k env listener)
      in
      Fiber.wait_until ~what:"clients done" (fun () -> !running = 0);
      Chan.shutdown listener;
      Fiber.wait_until ~what:"servers drained" (fun () -> !active = 0))
