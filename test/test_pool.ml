(* Snapshot pools: freeze a booted worker image once, stamp compartments
   out of it at flat cost.  Covers the freeze/stamp/discard lifecycle,
   the O(1) cost claim against fork-priced boot, COW preservation of the
   frozen frames, rlimit and identity capture, fault injection on both
   pool sites (a fault mid-stamp must leave the image pristine and the
   refcounts clean — swept by the oracle), supervisor [From_pool]
   integration, and the pool counters in the metrics registry. *)

module Kernel = Wedge_kernel.Kernel
module Clock = Wedge_sim.Clock
module Cost_model = Wedge_sim.Cost_model
module Stats = Wedge_sim.Stats
module Fiber = Wedge_sim.Fiber
module Fault_plan = Wedge_fault.Fault_plan
module Rlimit = Wedge_kernel.Rlimit
module Trace = Wedge_sim.Trace
module Metrics = Wedge_sim.Metrics
module W = Wedge_core.Wedge
module Engine = Wedge_core.Engine
module Pool = Wedge_core.Pool
module Supervisor = Wedge_core.Supervisor
module Oracle = Wedge_check.Oracle

let check = Alcotest.check

let mk ?faults ?(costs = Cost_model.free) ?(image_pages = 40) () =
  let k = Kernel.create ~costs ?faults () in
  let app = W.create_app ~image_pages k in
  W.boot app;
  (k, app, W.main_ctx app)

let sweep k app =
  let o = Oracle.create k in
  Oracle.set_app o app;
  Oracle.check o

let noop _ _ = 0

(* ---------- lifecycle ---------- *)

let test_freeze_stamp_basic () =
  let k, app, main = mk () in
  Fiber.run (fun () ->
      let pool = W.Pool.freeze ~name:"w" main (W.sc_create ()) in
      check Alcotest.bool "live" true (Pool.is_live pool);
      check Alcotest.bool "pages captured" true (Pool.frozen_pages pool > 0);
      let h = W.Pool.stamp main pool (fun _ x -> x + 41) 1 in
      check Alcotest.int "stamped worker ran" 42 (W.sthread_join main h);
      check Alcotest.int "freeze counted" 1 app.Engine.pool_freezes;
      check Alcotest.int "stamp counted" 1 app.Engine.pool_stamps;
      check Alcotest.int "hit counted" 1 app.Engine.pool_hits);
  sweep k app

let test_stamp_flat_vs_fresh_scaling () =
  (* The O(1) claim, on the simulated clock with paper-shaped prices:
     fresh boot cost grows with the image, stamp cost does not. *)
  let measure pages =
    let k, _, main = mk ~costs:Cost_model.default ~image_pages:pages () in
    let clock = k.Kernel.clock in
    let fresh = ref 0 and stamp = ref 0 in
    Fiber.run ~clock (fun () ->
        let t0 = Clock.now clock in
        ignore (W.sthread_create main (W.sc_create ()) noop 0);
        fresh := Clock.now clock - t0;
        let pool = W.Pool.freeze ~name:"w" main (W.sc_create ()) in
        let t1 = Clock.now clock in
        ignore (W.Pool.stamp main pool noop 0);
        stamp := Clock.now clock - t1);
    (!fresh, !stamp)
  in
  let f1, s1 = measure 40 and f2, s2 = measure 400 in
  check Alcotest.bool "fresh scales with pages" true (f2 > f1);
  check Alcotest.int "stamp flat across 10x image" s1 s2;
  check Alcotest.bool "stamp beats fresh" true (s1 < f1 && s2 < f2)

(* The host side of the same claim: a stamp attaches the frozen image
   instead of copying it entry by entry, so the words one stamp allocates
   do not grow with the image — less than one word per extra page from a
   60-page app to a 600-page one. *)
let test_stamp_host_words_flat () =
  let words pages =
    let _, _, main = mk ~image_pages:pages () in
    let w = ref 0. in
    Fiber.run (fun () ->
        let pool = W.Pool.freeze ~name:"w" main (W.sc_create ()) in
        ignore (W.Pool.stamp main pool noop 0);
        let w0 = Gc.minor_words () in
        ignore (W.Pool.stamp main pool noop 0);
        w := Gc.minor_words () -. w0);
    !w
  in
  let small = words 60 and large = words 600 in
  check Alcotest.bool
    (Printf.sprintf "stamp words %.0f (60 pages) -> %.0f (600 pages): < 1 word per page" small
       large)
    true
    (large -. small < 540.)

let test_stamp_cow_preserves_frozen_image () =
  let k, app, main = mk () in
  Fiber.run (fun () ->
      (* Warm the image so the frozen heap is part of the snapshot. *)
      let addr = ref 0 in
      let pool =
        W.Pool.freeze ~name:"w"
          ~warm:(fun ctx ->
            let p = W.malloc ctx 64 in
            W.write_u64 ctx p 0xBEEF;
            addr := p)
          main (W.sc_create ())
      in
      (* Two stamped workers write the same heap address: each must COW
         onto a private frame and see its own value. *)
      let h1 =
        W.Pool.stamp main pool
          (fun ctx _ ->
            W.write_u64 ctx !addr 111;
            W.read_u64 ctx !addr)
          0
      in
      check Alcotest.int "worker 1 private write" 111 (W.sthread_join main h1);
      let h2 =
        W.Pool.stamp main pool
          (fun ctx _ -> W.read_u64 ctx !addr)
          0
      in
      check Alcotest.int "worker 2 still sees frozen value" 0xBEEF
        (W.sthread_join main h2));
  (* The frozen frames survived both stamps un-broken: refcounts re-derive
     and no pw mapping points at a frozen COW frame. *)
  sweep k app

let test_discard_releases_image () =
  let k, app, main = mk () in
  Fiber.run (fun () ->
      let pool = W.Pool.freeze ~name:"w" main (W.sc_create ()) in
      ignore (W.sthread_join main (W.Pool.stamp main pool noop 0));
      W.Pool.discard main pool;
      check Alcotest.bool "dead after discard" false (Pool.is_live pool);
      check Alcotest.bool "stamp after discard refused" true
        (match W.Pool.stamp main pool noop 0 with
        | exception Invalid_argument _ -> true
        | _ -> false);
      (* Double discard is a no-op, and a fresh freeze can reuse the name. *)
      W.Pool.discard main pool;
      let pool2 = W.Pool.freeze ~name:"w" main (W.sc_create ()) in
      ignore (W.sthread_join main (W.Pool.stamp main pool2 noop 0)));
  sweep k app

let test_duplicate_freeze_name_refused () =
  let _, _, main = mk () in
  Fiber.run (fun () ->
      let _pool = W.Pool.freeze ~name:"w" main (W.sc_create ()) in
      check Alcotest.bool "duplicate name refused" true
        (match W.Pool.freeze ~name:"w" main (W.sc_create ()) with
        | exception Invalid_argument _ -> true
        | _ -> false))

(* ---------- identity and limits ---------- *)

let test_stamp_identity_and_limits () =
  let k, app, main = mk () in
  Fiber.run (fun () ->
      let sc = W.sc_create () in
      W.sc_set_uid sc 99;
      W.sc_set_rlimit sc (Rlimit.create ~max_frames:64 ~max_fds:4 ~max_fuel:100_000 ());
      let pool = W.Pool.freeze ~name:"w" main sc in
      (* Identity captured at freeze rides into every stamp. *)
      let h = W.Pool.stamp main pool (fun ctx _ -> W.getuid ctx) 0 in
      check Alcotest.int "stamped uid from pool" 99 (W.sthread_join main h);
      (* A stamp-time extra can override identity per invocation. *)
      let extra = W.sc_create () in
      W.sc_set_uid extra 33;
      let h2 = W.Pool.stamp ~extra main pool (fun ctx _ -> W.getuid ctx) 0 in
      check Alcotest.int "extra overrides uid" 33 (W.sthread_join main h2));
  sweep k app

(* ---------- fault injection on the pool sites ---------- *)

let test_fault_during_freeze_leaves_no_image () =
  let plan = Fault_plan.create ~seed:7 () in
  Fault_plan.rule plan ~site:"pool.freeze" ~prob:1.0 [ Fault_plan.Crash ];
  Fault_plan.disarm plan;
  let k, app, main = mk ~faults:plan () in
  Fiber.run (fun () ->
      Fault_plan.arm plan;
      check Alcotest.bool "freeze crashed" true
        (match W.Pool.freeze ~name:"w" main (W.sc_create ()) with
        | exception _ -> true
        | _ -> false);
      Fault_plan.disarm plan;
      check Alcotest.int "no image registered" 0 (List.length app.Engine.frozen_images);
      (* The name is free again and a clean retry works. *)
      let pool = W.Pool.freeze ~name:"w" main (W.sc_create ()) in
      ignore (W.sthread_join main (W.Pool.stamp main pool noop 0)));
  sweep k app

let test_fault_during_stamp_image_pristine () =
  let plan = Fault_plan.create ~seed:8 () in
  Fault_plan.rule plan ~site:"pool.stamp" ~prob:1.0 [ Fault_plan.Crash ];
  Fault_plan.disarm plan;
  let k, app, main = mk ~faults:plan () in
  Fiber.run (fun () ->
      let pool = W.Pool.freeze ~name:"w" main (W.sc_create ()) in
      Fault_plan.arm plan;
      check Alcotest.bool "stamp crashed" true
        (match W.Pool.stamp main pool noop 0 with exception _ -> true | _ -> false);
      Fault_plan.disarm plan;
      (* The frozen image survived the failed stamp pristine: still live,
         still registered, and a clean stamp serves. *)
      check Alcotest.bool "pool still live" true (Pool.is_live pool);
      check Alcotest.int "image still registered" 1 (List.length app.Engine.frozen_images);
      check Alcotest.bool "faulted attempt counted, no hit" true
        (app.Engine.pool_stamps >= 1 && app.Engine.pool_hits = 0);
      ignore (W.sthread_join main (W.Pool.stamp main pool noop 0)));
  (* Refcounts and COW re-derive clean after the mid-stamp crash. *)
  sweep k app

(* ---------- supervisor integration ---------- *)

let test_from_pool_child_restamps () =
  let k, app, main = mk () in
  Fiber.run (fun () ->
      let pool = W.Pool.freeze ~name:"w" main (W.sc_create ()) in
      let node = Supervisor.node ~name:"t" main in
      let c =
        Supervisor.child
          ~max_restarts:2
          ~restart:(Supervisor.From_pool pool) node ~name:"w"
      in
      let attempts = ref 0 in
      let outcome =
        Supervisor.run_child_sthread c (W.sc_create ())
          (fun _ _ ->
            incr attempts;
            if !attempts = 1 then raise (Fault_plan.Injected "first attempt dies");
            7)
          0
      in
      (match outcome with
      | Supervisor.Done { value; _ } ->
          check Alcotest.int "restamped attempt served" 7 value
      | Supervisor.Gave_up _ -> Alcotest.fail "pooled child gave up");
      check Alcotest.int "two attempts" 2 !attempts;
      check Alcotest.int "both attempts stamped from pool" 2 app.Engine.pool_stamps);
  sweep k app

let test_from_pool_quarantine_is_shorter () =
  (* Quarantine length is priced against restart cost: a pooled child is
     re-admitted at a quarter of the fixed 20 us quarantine.  Five
     retries exhaust the intensity budget of five faults: the sixth
     faulted attempt escalates. *)
  let run_variant restart =
    let _, _, main = mk () in
    let lifted = ref (-1) in
    Fiber.run (fun () ->
        let pool =
          match restart with
          | true -> Some (W.Pool.freeze ~name:"w" main (W.sc_create ()))
          | false -> None
        in
        let node = Supervisor.node ~name:"t" main in
        let c =
          Supervisor.child
            ~max_restarts:5
            ~restart:
              (match pool with Some p -> Supervisor.From_pool p | None -> Supervisor.Fresh)
            node ~name:"w"
        in
        ignore (Supervisor.run_child_fn c (fun () -> raise (Fault_plan.Injected "boom")));
        match Supervisor.quarantined_until c with
        | Some t -> lifted := t
        | None -> Alcotest.fail "expected quarantine");
    !lifted
  in
  let fresh_until = run_variant false and pooled_until = run_variant true in
  check Alcotest.bool "pooled quarantine lifts sooner" true
    (pooled_until < fresh_until)

(* ---------- observability ---------- *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_pool_metrics_and_trace () =
  let k, app, main = mk () in
  Trace.arm k.Kernel.trace;
  Fiber.run (fun () ->
      let pool = W.Pool.freeze ~name:"w" main (W.sc_create ()) in
      ignore (W.sthread_join main (W.Pool.stamp main pool noop 0));
      W.Pool.discard main pool);
  check Alcotest.bool "freeze stat" true (Stats.get k.Kernel.stats "pool.freeze" >= 1);
  check Alcotest.bool "stamp stat" true (Stats.get k.Kernel.stats "pool.stamp" >= 1);
  check Alcotest.bool "discard stat" true (Stats.get k.Kernel.stats "pool.discard" >= 1);
  let m = Metrics.create () in
  W.register_metrics m app;
  let json = Metrics.to_json m in
  List.iter
    (fun needle ->
      check Alcotest.bool (needle ^ " in metrics") true (contains json needle))
    [ "pool.freezes"; "pool.stamps"; "pool.hits"; "pool.frozen_frames" ];
  let trace = Trace.to_chrome_json k.Kernel.trace in
  List.iter
    (fun needle ->
      check Alcotest.bool (needle ^ " in trace") true (contains trace needle))
    [ "pool.freeze"; "pool.stamp"; "pool.discard" ];
  sweep k app

let () =
  Alcotest.run "pool"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "freeze + stamp" `Quick test_freeze_stamp_basic;
          Alcotest.test_case "flat vs fresh scaling" `Quick test_stamp_flat_vs_fresh_scaling;
          Alcotest.test_case "stamp host words flat" `Quick test_stamp_host_words_flat;
          Alcotest.test_case "COW preserves image" `Quick test_stamp_cow_preserves_frozen_image;
          Alcotest.test_case "discard" `Quick test_discard_releases_image;
          Alcotest.test_case "duplicate name" `Quick test_duplicate_freeze_name_refused;
        ] );
      ( "grants",
        [ Alcotest.test_case "identity + limits" `Quick test_stamp_identity_and_limits ] );
      ( "faults",
        [
          Alcotest.test_case "freeze crash" `Quick test_fault_during_freeze_leaves_no_image;
          Alcotest.test_case "stamp crash" `Quick test_fault_during_stamp_image_pristine;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "From_pool restamps" `Quick test_from_pool_child_restamps;
          Alcotest.test_case "pooled quarantine shorter" `Quick
            test_from_pool_quarantine_is_shorter;
        ] );
      ( "observability",
        [ Alcotest.test_case "metrics + trace" `Quick test_pool_metrics_and_trace ] );
    ]
