(* Self-healing tests: overflow-safe supervision backoff, fault-history
   reset for long-lived workers, supervision-tree escalation and
   quarantine, hang cuts by the guard's idle deadline (unit and
   against all three servers via a mid-header staller), circuit-breaker
   transitions (streak, rate and brownout rules), fiber
   cancellation delivery, the new engine fault sites, and byte-identical
   replay of a full fault-storm scenario. *)

module Fault_plan = Wedge_fault.Fault_plan
module Kernel = Wedge_kernel.Kernel
module Fiber = Wedge_sim.Fiber
module Clock = Wedge_sim.Clock
module Cost_model = Wedge_sim.Cost_model
module Stats = Wedge_sim.Stats
module Chan = Wedge_net.Chan
module Guard = Wedge_net.Guard
module Reactor = Wedge_sim.Reactor
module Fd_table = Wedge_kernel.Fd_table
module Byzantine = Wedge_net.Byzantine
module W = Wedge_core.Wedge
module Supervisor = Wedge_core.Supervisor
module Scenarios = Wedge_check.Scenarios

let check = Alcotest.check

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let mk_ctx () =
  let k = Kernel.create ~costs:Cost_model.free () in
  let app = W.create_app ~image_pages:40 k in
  W.boot app;
  (k, W.main_ctx app)

(* ---------- satellite 1: overflow-safe, capped backoff ---------- *)

let test_backoff_no_overflow () =
  (* The old schedule [backoff_ns * (1 lsl (attempt - 1))] overflows at
     attempt 63 and shifts by a negative amount past 64.  The doubling
     fold must saturate instead. *)
  let b100 = Supervisor.backoff_for ~attempt:100 in
  check Alcotest.bool "attempt 100 is non-negative" true (b100 >= 0);
  check Alcotest.bool "attempt 100 saturates high" true (b100 > 1_000_000)

let test_backoff_cap_pins_schedule () =
  (* 100 ns doubling per attempt; attempt 25 (100 * 2^24 ns) is the first
     past the 1 s cap. *)
  check Alcotest.int "attempt 1" 100 (Supervisor.backoff_for ~attempt:1);
  check Alcotest.int "attempt 2" 200 (Supervisor.backoff_for ~attempt:2);
  check Alcotest.int "attempt 4" 800 (Supervisor.backoff_for ~attempt:4);
  check Alcotest.int "attempt 24 uncapped" 838_860_800 (Supervisor.backoff_for ~attempt:24);
  check Alcotest.int "attempt 25 capped" 1_000_000_000 (Supervisor.backoff_for ~attempt:25);
  check Alcotest.int "attempt 60 capped" 1_000_000_000 (Supervisor.backoff_for ~attempt:60);
  (* The cap leaves the small schedules untouched: 100+200+400 = 700 ns
     for three retries. *)
  let total =
    Supervisor.backoff_for ~attempt:1
    + Supervisor.backoff_for ~attempt:2
    + Supervisor.backoff_for ~attempt:3
  in
  check Alcotest.int "pinned 700 ns schedule" 700 total

(* ---------- tree: escalation and quarantine ---------- *)

let failing_fn () = raise (Fault_plan.Injected "boom")

let test_tree_escalates_and_quarantines () =
  let k, ctx = mk_ctx () in
  let node = Supervisor.node ~name:"t" ctx in
  let c = Supervisor.child ~max_restarts:5 node ~name:"w" in
  (* Attempt stream: faults 1 to 5 fit the budget of five per 10 us (the
     backoffs add up to 3.1 us), the sixth escalates at the last retry. *)
  (match Supervisor.run_child_fn c failing_fn with
  | Supervisor.Gave_up { attempts; last_fault } ->
      check Alcotest.int "sixth attempt escalates" 6 attempts;
      check Alcotest.bool "escalated" true (contains last_fault "escalated")
  | Supervisor.Done _ -> Alcotest.fail "expected Gave_up");
  check Alcotest.bool "quarantined" true
    (Supervisor.child_health c = Supervisor.Quarantined);
  check Alcotest.int "escalation counted" 1 (Stats.get k.Kernel.stats "supervisor.escalated");
  (* While quarantined: refused without burning an attempt — even a
     healthy function is not run. *)
  (match Supervisor.run_child_fn c (fun () -> 7) with
  | Supervisor.Gave_up { attempts; last_fault } ->
      check Alcotest.int "no attempt burned" 0 attempts;
      check Alcotest.bool "quarantined reason" true (contains last_fault "quarantined")
  | Supervisor.Done _ -> Alcotest.fail "quarantine must refuse");
  check Alcotest.int "refusal counted" 1
    (Stats.get k.Kernel.stats "supervisor.quarantine.refused");
  (* After the 20 us quarantine the child runs again and recovers. *)
  Clock.charge k.Kernel.clock 25_000;
  (match Supervisor.run_child_fn c (fun () -> 7) with
  | Supervisor.Done { value; _ } -> check Alcotest.int "served after lift" 7 value
  | Supervisor.Gave_up _ -> Alcotest.fail "quarantine must lift");
  check Alcotest.int "lift counted" 1
    (Stats.get k.Kernel.stats "supervisor.quarantine.lift")

(* ---------- satellite 2: healthy period clears fault history ---------- *)

let test_healthy_reset_clears_history () =
  let k, ctx = mk_ctx () in
  let node = Supervisor.node ~name:"t" ctx in
  let c = Supervisor.child ~max_restarts:4 node ~name:"w" in
  (* One faulted run puts five faults in the window, the last at +1.5 us:
     the whole budget. *)
  ignore (Supervisor.run_child_fn c failing_fn);
  check Alcotest.bool "degraded after fault" true
    (Supervisor.child_health c = Supervisor.Degraded);
  (* A 10 us clean stretch forgets the early crash: the worker is Healthy
     again and the old faults cannot contribute to a later escalation. *)
  Clock.charge k.Kernel.clock 10_000;
  (match Supervisor.run_child_fn c (fun () -> 1) with
  | Supervisor.Done _ -> ()
  | Supervisor.Gave_up _ -> Alcotest.fail "clean run");
  check Alcotest.bool "healthy after quiet period" true
    (Supervisor.child_health c = Supervisor.Healthy);
  check Alcotest.bool "reset counted" true
    (Stats.get k.Kernel.stats "supervisor.healthy_reset" >= 1);
  (* The forgotten faults must not count toward the budget: five fresh
     ones are within the five allowed again (no escalation).  Without the
     reset, the last old fault would still sit in the 10 us window and
     make it six. *)
  (match Supervisor.run_child_fn c failing_fn with
  | Supervisor.Gave_up { last_fault; _ } ->
      check Alcotest.bool "plain gave-up, not escalation" false
        (contains last_fault "escalated")
  | Supervisor.Done _ -> Alcotest.fail "expected Gave_up");
  check Alcotest.int "no escalation" 0 (Stats.get k.Kernel.stats "supervisor.escalated")

(* ---------- fiber cancellation ---------- *)

let test_fiber_cancel_delivered_once () =
  let cancelled = ref 0 and resumed = ref 0 and id = ref (-1) in
  Fiber.run (fun () ->
      Fiber.spawn (fun () ->
          id := Fiber.fiber_id ();
          (try
             while true do
               Fiber.yield ()
             done
           with Fiber.Cancelled _ -> incr cancelled);
          (* The mark is consumed: later yields in the same fiber run. *)
          Fiber.yield ();
          incr resumed);
      Fiber.yield ();
      Fiber.cancel ~reason:"test" !id);
  check Alcotest.int "cancelled once" 1 !cancelled;
  check Alcotest.int "fiber continued after handling" 1 !resumed

(* ---------- hang cuts: the guard's idle deadline ---------- *)

(* A guard with an idle deadline whose listener is served by
   [accept_loop], so a hang cut cancels the connection's serve fiber. *)
let idle_guard ~deadline_ns clock =
  let r = Reactor.create ~clock () in
  (r, Guard.create ~idle_deadline_ns:deadline_ns ~reactor:r ~max_conns:2 ())

let serve_one g l serve =
  Fiber.spawn (fun () -> Guard.accept_loop g l ~reject:(fun _ _ -> ()) ~serve)

let test_hang_cuts_hung_fiber () =
  let clock = Clock.create () in
  let r, g = idle_guard ~deadline_ns:1_000 clock in
  let l = Chan.listener ~costs:Cost_model.free () in
  let cancelled = ref false in
  Fiber.run ~clock ~on_switch:(Reactor.hook r) (fun () ->
      serve_one g l (fun _ ->
          try
            Clock.charge clock 5_000;
            (* hung: no byte delivered while the clock runs past the deadline *)
            while true do
              Fiber.yield ()
            done
          with Fiber.Cancelled _ -> cancelled := true);
      let ep = Chan.connect l in
      Fiber.wait_until ~what:"hung worker cancelled" (fun () -> !cancelled);
      Chan.close ep;
      Chan.shutdown l);
  check Alcotest.bool "fiber cancelled" true !cancelled;
  check Alcotest.int "one cut" 1 (Guard.stats g).Guard.s_timed_out;
  check Alcotest.bool "no connection left overdue" true
    (Guard.deadline_check ~slack_ns:0 g = None)

(* The worker is parked on an internal channel nobody writes (the sshd
   slave mid-message): aborting the connection cannot wake it, the
   cancellation does, and the late worker dies as a contained fault. *)
let test_hang_late_worker_dies_contained () =
  let clock = Clock.create () in
  let r, g = idle_guard ~deadline_ns:1_000 clock in
  let l = Chan.listener ~costs:Cost_model.free () in
  let late = ref None in
  Fiber.run ~clock ~on_switch:(Reactor.hook r) ~on_idle:(Reactor.idle r) (fun () ->
      serve_one g l (fun _ ->
          let internal, _peer = Chan.pair () in
          try ignore (Chan.read internal 1)
          with e ->
            late := Some e;
            raise e);
      let ep = Chan.connect l in
      Fiber.wait_until ~what:"late worker resumed" (fun () -> !late <> None);
      Chan.close ep;
      Chan.shutdown l);
  (match !late with
  | Some (Fiber.Cancelled _ as e) ->
      check Alcotest.bool "a contained engine fault" true
        (Wedge_core.Engine.fault_reason e <> None)
  | _ -> Alcotest.fail "the late worker must resume into Fiber.Cancelled");
  check Alcotest.int "one cut" 1 (Guard.stats g).Guard.s_timed_out;
  check Alcotest.int "slot released" 0 (Guard.active g)

(* Worker and client both parked, nothing else charging the clock: the
   deadline is a reactor timer, so the idle scheduler sleeps straight to
   it and the cut lands at deadline + 1 — instead of the run dying in
   [Fiber.Deadlock]. *)
let test_hang_all_parked_is_cut () =
  let clock = Clock.create () in
  let r, g = idle_guard ~deadline_ns:1_000 clock in
  let l = Chan.listener ~costs:Cost_model.free () in
  let cancelled_at = ref (-1) in
  Fiber.run ~clock ~on_switch:(Reactor.hook r) ~on_idle:(Reactor.idle r) (fun () ->
      serve_one g l (fun c ->
          (* parks for a request that never comes *)
          try ignore ((Guard.endpoint c).Fd_table.ep_read 64)
          with Fiber.Cancelled _ -> cancelled_at := Clock.now clock);
      let ep = Chan.connect l in
      (* parks for a greeting that never comes *)
      (try ignore (Chan.read ep 64) with _ -> ());
      Chan.shutdown l);
  check Alcotest.int "worker cancelled at deadline + 1" 1_001 !cancelled_at;
  check Alcotest.int "one cut" 1 (Guard.stats g).Guard.s_timed_out

(* ---------- reactor / idle-deadline interplay ---------- *)

let mk_readv_vm () =
  let pm = Wedge_kernel.Physmem.create () in
  let vm = Wedge_kernel.Vm.create ~pid:1 pm (Clock.create ()) Cost_model.free in
  Wedge_kernel.Vm.map_fresh vm ~addr:0x1000 ~pages:1
    ~prot:Wedge_kernel.Prot.page_rw ~tag:None;
  vm

(* A worker draining its connection through batched vectored reads keeps
   its idle clock fresh: the deadline timer — fired from the reactor's
   sweeps, no polling fiber anywhere — must never cut it, even though the
   session spans several deadlines end to end. *)
let test_reactor_readv_keeps_alive () =
  let clock = Clock.create () in
  let r = Reactor.create ~clock () in
  let g = Guard.create ~idle_deadline_ns:1_000 ~reactor:r ~max_conns:2 () in
  let got = Buffer.create 64 in
  Fiber.run ~clock ~on_switch:(Reactor.hook r) (fun () ->
      let a, b = Chan.pair () in
      let c =
        match Guard.admit g b with
        | Guard.Admitted c -> c
        | _ -> Alcotest.fail "expected admission"
      in
      let readv = (Guard.endpoint c).Fd_table.ep_readv in
      let vm = mk_readv_vm () in
      Fiber.spawn (fun () ->
          let rec go () =
            let n = readv vm [| (0x1000, 4); (0x1004, 4) |] in
            if n > 0 then begin
              Buffer.add_bytes got (Wedge_kernel.Vm.read_bytes vm 0x1000 n);
              go ()
            end
          in
          go ();
          Guard.release c);
      (* Five bursts, each 0.6 deadlines apart: the whole session lasts
         3x the idle deadline, but every vectored delivery restarts the
         idle clock in passing. *)
      for i = 1 to 5 do
        Clock.charge clock 600;
        Chan.write_string a (Printf.sprintf "burst%03d" i)
      done;
      Chan.close a);
  check Alcotest.int "idle clock kept fresh: no cut" 0 (Guard.stats g).Guard.s_timed_out;
  check Alcotest.int "every burst landed through readv" 40 (Buffer.length got);
  check Alcotest.bool "no connection left overdue" true
    (Guard.deadline_check ~slack_ns:0 g = None)

(* A parked worker whose client goes silent: the idle deadline must cut
   it promptly — parking must not delay the cut past the deadline plus
   one sweep step, and the cut must wake the parked fiber to a clean
   EOF. *)
let test_reactor_cuts_parked_worker_within_deadline () =
  let clock = Clock.create () in
  let r = Reactor.create ~clock () in
  let g = Guard.create ~idle_deadline_ns:1_000 ~reactor:r ~max_conns:2 () in
  let woke_at = ref (-1) in
  let eof = ref false in
  Fiber.run ~clock ~on_switch:(Reactor.hook r) (fun () ->
      let a, b = Chan.pair () in
      let c =
        match Guard.admit g b with
        | Guard.Admitted c -> c
        | _ -> Alcotest.fail "expected admission"
      in
      let readv = (Guard.endpoint c).Fd_table.ep_readv in
      let vm = mk_readv_vm () in
      Fiber.spawn (fun () ->
          eof := readv vm [| (0x1000, 8) |] = 0;
          woke_at := Clock.now clock;
          Guard.release c);
      (* Let the worker park before the silence. *)
      Fiber.yield ();
      (* Silence: advance the clock in sweep-sized steps; every yield
         runs the reactor hook, which fires due deadline timers. *)
      for _ = 1 to 10 do
        Clock.charge clock 300;
        Fiber.yield ()
      done;
      Chan.close a);
  check Alcotest.int "the idle deadline cut the parked worker" 1
    (Guard.stats g).Guard.s_timed_out;
  check Alcotest.bool "cut surfaced as EOF in the parked read" true !eof;
  (* The timer fires at the t=1200 sweep, but the woken worker lands
     behind the already-enqueued main fiber, so it resumes one scheduler
     rotation (one more 300 ns charge) later: deadline + sweep + rotation. *)
  check Alcotest.bool "cut landed within deadline + sweep + one rotation" true
    (!woke_at >= 0 && !woke_at <= 1_600)

(* ---------- circuit breaker ---------- *)

(* The fixed breaker: trip on 3 straight failures or a 0.5 failure rate
   over at least 6 samples in 40 us; open 5 us; 2 probes; brownout at a
   0.3 failure rate. *)
let breaker_guard clock =
  Guard.create ~reactor:(Reactor.create ~clock ()) ~breaker:true ~max_conns:8 ()

(* One admitted connection: 100 ns of service, then its outcome. *)
let breaker_sample clock g ~ok =
  let a, b = Chan.pair () in
  match Guard.admit g b with
  | Guard.Admitted c ->
      Clock.charge clock 100;
      Guard.report c ~ok;
      Guard.release c;
      Chan.close a
  | _ -> Alcotest.fail "expected admission"

let test_breaker_opens_sheds_and_recovers () =
  let clock = Clock.create () in
  Fiber.run ~clock (fun () ->
      let g = breaker_guard clock in
      let admit () =
        let a, b = Chan.pair () in
        match Guard.admit g b with
        | Guard.Admitted c -> (a, c)
        | _ -> Alcotest.fail "expected admission"
      in
      check Alcotest.bool "starts closed" true
        (Guard.breaker_state g = Some Guard.Closed);
      (* Three consecutive failures trip it. *)
      for i = 1 to 3 do
        breaker_sample clock g ~ok:false;
        if i < 3 then
          check Alcotest.bool "still closed before streak" true
            (Guard.breaker_state g = Some Guard.Closed)
      done;
      check Alcotest.bool "open after streak" true
        (Guard.breaker_state g = Some Guard.Open);
      check Alcotest.bool "reaction recorded" true
        (List.length (Guard.breaker_reactions g) = 1);
      (* Open sheds without burning capacity. *)
      let a, b = Chan.pair () in
      (match Guard.admit g b with
      | Guard.Shed -> ()
      | _ -> Alcotest.fail "open breaker must shed");
      Chan.close a;
      check Alcotest.int "no slot burned" 0 (Guard.active g);
      (* After the cooling period: half-open probes; two successes close. *)
      Clock.charge clock 6_000;
      let a1, c1 = admit () in
      check Alcotest.bool "half-open on first probe" true
        (Guard.breaker_state g = Some Guard.Half_open);
      Guard.report c1 ~ok:true;
      Guard.release c1;
      Chan.close a1;
      let a2, c2 = admit () in
      Guard.report c2 ~ok:true;
      Guard.release c2;
      Chan.close a2;
      check Alcotest.bool "closed after probes" true
        (Guard.breaker_state g = Some Guard.Closed);
      check Alcotest.bool "summary mentions closed" true
        (contains (Guard.breaker_summary g) "closed"))

let test_breaker_failed_probe_reopens () =
  let clock = Clock.create () in
  Fiber.run ~clock (fun () ->
      let g = breaker_guard clock in
      let admit () =
        let a, b = Chan.pair () in
        match Guard.admit g b with
        | Guard.Admitted c -> (a, c)
        | _ -> Alcotest.fail "expected admission"
      in
      for _ = 1 to 3 do
        breaker_sample clock g ~ok:false
      done;
      Clock.charge clock 6_000;
      let a, c = admit () in
      Guard.report c ~ok:false;
      Guard.release c;
      Chan.close a;
      check Alcotest.bool "failed probe reopens" true
        (Guard.breaker_state g = Some Guard.Open);
      check Alcotest.int "two trips recorded" 2
        (Guard.stats g).Guard.s_breaker_opened)

let test_breaker_trips_on_rate () =
  let clock = Clock.create () in
  Fiber.run ~clock (fun () ->
      let g = breaker_guard clock in
      (* F,F,ok,F,ok,F: never three straight failures, but the sixth
         sample fills the 6-sample minimum at 4/6 failed, over the 0.5
         trip rate.  The rule is checked as each failure lands. *)
      List.iteri
        (fun i ok ->
          breaker_sample clock g ~ok;
          let want = if i < 5 then Guard.Closed else Guard.Open in
          check Alcotest.bool
            (Printf.sprintf "state after sample %d" (i + 1))
            true
            (Guard.breaker_state g = Some want))
        [ false; false; true; false; true; false ];
      check Alcotest.int "one trip" 1 (Guard.stats g).Guard.s_breaker_opened)

let test_breaker_brownout_sheds_every_second () =
  let clock = Clock.create () in
  Fiber.run ~clock (fun () ->
      let g = breaker_guard clock in
      (* Two failures in six samples: 0.33 is at the 0.3 brownout
         threshold but under the 0.5 trip rate, and no streak forms. *)
      List.iter (fun ok -> breaker_sample clock g ~ok) [ false; true; false; true; true; true ];
      let shed =
        List.init 4 (fun _ ->
            let a, b = Chan.pair () in
            let shed =
              match Guard.admit g b with
              | Guard.Admitted c ->
                  Guard.release c;
                  false
              | d -> d = Guard.Shed
            in
            Chan.close a;
            shed)
      in
      check (Alcotest.list Alcotest.bool) "every second admission shed"
        [ false; true; false; true ] shed;
      check Alcotest.bool "still closed" true (Guard.breaker_state g = Some Guard.Closed);
      check Alcotest.int "sheds counted" 2 (Guard.stats g).Guard.s_shed;
      check Alcotest.int "never tripped" 0 (Guard.stats g).Guard.s_breaker_opened)

(* ---------- satellite 3: mid-header staller vs all three servers ------- *)

(* One hanging client against a server behind an idle deadline: the hung
   worker is cut at the deadline, the listener survives ([clean] — a
   terminating well-formed exchange — succeeds afterwards), and the
   tally accounts for the staller. *)
let staller_then_clean ~serve_loop ~prefix ~clean k l guard r =
  let clock = k.Kernel.clock in
  let t = Byzantine.tally () in
  let served_after = ref false in
  Fiber.run ~clock ~on_switch:(Reactor.hook r) ~on_idle:(Reactor.idle r) (fun () ->
      Fiber.spawn serve_loop;
      Fiber.spawn (fun () ->
          Byzantine.mid_header_stall t l ~clock ~step_ns:1_000 ~prefix
            ~is_rejection:(fun _ -> false) ());
      Fiber.wait_until ~what:"staller resolved" (fun () -> Byzantine.total t = 1);
      (* The staller is gone; the listener must still serve. *)
      served_after := clean ();
      Guard.drain guard l);
  check Alcotest.int "staller cut" 1 t.Byzantine.cut;
  check Alcotest.bool "the idle deadline cut the hung worker" true
    ((Guard.stats guard).Guard.s_timed_out >= 1);
  check Alcotest.bool "listener survived and served" true !served_after;
  check Alcotest.bool "no connection left overdue" true
    (Guard.deadline_check ~slack_ns:0 guard = None)

(* A clean request/response exchange that is guaranteed to terminate:
   send [request], read to EOF (the request must drive the server to
   close), return whether [ok] accepts the response. *)
let clean_exchange l ~request ~ok () =
  match Chan.connect l with
  | exception _ -> false
  | ep ->
      Chan.write_string ep request;
      let buf = Buffer.create 64 in
      (try
         let rec go () =
           let b = Chan.read ep 4096 in
           if Bytes.length b > 0 then begin
             Buffer.add_bytes buf b;
             go ()
           end
         in
         go ()
       with _ -> ());
      (try Chan.close ep with _ -> ());
      ok (Buffer.contents buf)

let test_staller_httpd () =
  let k = Kernel.create ~costs:Cost_model.free () in
  let env = Wedge_httpd.Httpd_env.install ~image_pages:60 ~seed:11 k in
  let l = Chan.listener ~costs:Cost_model.free ~backlog:4 () in
  let r = Reactor.create ~clock:k.Kernel.clock () in
  let guard = Guard.create ~idle_deadline_ns:4_000 ~reactor:r ~max_conns:2 () in
  staller_then_clean
    ~serve_loop:(fun () -> Wedge_httpd.Httpd_simple.serve_loop env guard l)
    ~prefix:"h\001\000partial-hello"
      (* plaintext at a TLS endpoint: the bad record type fails the
         handshake and closes the stream — a definite answer proves the
         listener is alive *)
    ~clean:(clean_exchange l ~request:"GET / HTTP/1.0\r\n\r\n" ~ok:(fun _ -> true))
    k l guard r

let test_staller_pop3 () =
  let k = Kernel.create ~costs:Cost_model.free () in
  Wedge_pop3.Pop3_env.install k Wedge_pop3.Pop3_env.default_users;
  let app = W.create_app ~image_pages:60 k in
  W.boot app;
  let main_ctx = W.main_ctx app in
  let l = Chan.listener ~costs:Cost_model.free ~backlog:4 () in
  let r = Reactor.create ~clock:k.Kernel.clock () in
  let guard = Guard.create ~idle_deadline_ns:4_000 ~reactor:r ~max_conns:2 () in
  staller_then_clean
    ~serve_loop:(fun () -> Wedge_pop3.Pop3_wedge.serve_loop main_ctx guard l)
    ~prefix:"USER ali"
    ~clean:
      (clean_exchange l ~request:"USER alice\r\nPASS wonderland\r\nSTAT\r\nQUIT\r\n"
         ~ok:(fun resp -> contains resp "+OK"))
    k l guard r

let test_staller_sshd () =
  let k = Kernel.create ~costs:Cost_model.free () in
  let env = Wedge_sshd.Sshd_env.install ~image_pages:40 ~seed:12 k in
  let l = Chan.listener ~costs:Cost_model.free ~backlog:4 () in
  let r = Reactor.create ~clock:k.Kernel.clock () in
  let guard = Guard.create ~idle_deadline_ns:4_000 ~reactor:r ~max_conns:2 () in
  (* The clean probe is a real SSH login: a garbage follow-up would hang
     the slave mid-packet (another hang cut, not a health proof). *)
  let clean () =
    match Chan.connect l with
    | exception _ -> false
    | ep -> (
        let rng = Wedge_crypto.Drbg.create ~seed:0x5AFE in
        match
          Wedge_sshd.Ssh_client.login ~rng
            ~pinned_rsa:env.Wedge_sshd.Sshd_env.host_rsa.Wedge_crypto.Rsa.pub
            ~pinned_dsa:env.Wedge_sshd.Sshd_env.host_dsa.Wedge_crypto.Dsa.pub
            ~user:"alice"
            (Wedge_sshd.Ssh_client.Password "wonderland")
            ep
        with
        | Ok conn ->
            Wedge_sshd.Ssh_client.close conn;
            true
        | Error _ ->
            (try Chan.close ep with _ -> ());
            false
        | exception _ ->
            (try Chan.close ep with _ -> ());
            false)
  in
  staller_then_clean
    ~serve_loop:(fun () -> Wedge_sshd.Sshd_privsep.serve_loop env guard l)
      (* truncated wire frame: claims 256 payload bytes, delivers 11 *)
    ~prefix:"D\001\000SSH-2.0-cha" ~clean k l guard r

(* ---------- new engine fault sites ---------- *)

let test_fiber_stall_site_charges_clock () =
  let plan = Fault_plan.create ~seed:3 () in
  Fault_plan.rule plan ~site:"fiber.stall" ~prob:1.0 [ Fault_plan.Delay 8_000 ];
  let clock = Clock.create () in
  Fiber.run ~faults:plan ~clock (fun () -> Fiber.yield ());
  check Alcotest.bool "stall charged the clock" true (Clock.now clock >= 8_000)

let test_cgate_call_site_faults_contained () =
  let plan = Fault_plan.create ~seed:4 () in
  Fault_plan.rule plan ~site:"cgate.call" ~prob:1.0 [ Fault_plan.Crash ];
  Fault_plan.disarm plan;
  let k = Kernel.create ~costs:Cost_model.free ~faults:plan () in
  Wedge_pop3.Pop3_env.install k Wedge_pop3.Pop3_env.default_users;
  let app = W.create_app ~image_pages:60 k in
  W.boot app;
  let main_ctx = W.main_ctx app in
  let degraded = ref false in
  Fiber.run (fun () ->
      let a, b = Chan.pair ~costs:Cost_model.free () in
      Fiber.spawn (fun () ->
          (* No retries: a fresh attempt would re-greet and serve the
             remaining (innocent) QUIT, masking the crash. *)
          let node = Supervisor.node ~name:"pop3" main_ctx in
          let supervised = Supervisor.child ~max_restarts:0 node ~name:"worker" in
          let r = Wedge_pop3.Pop3_wedge.serve_connection ~supervised main_ctx b in
          degraded := r.Wedge_pop3.Pop3_wedge.degraded);
      (* Let the handler start, then make every callgate call crash. *)
      Chan.write_string a "USER alice\r\n";
      Fault_plan.arm plan;
      Chan.write_string a "PASS wonderland\r\nQUIT\r\n";
      let rec drain_eof () =
        if Bytes.length (Chan.read a 4096) > 0 then drain_eof ()
      in
      (try drain_eof () with _ -> ());
      try Chan.close a with _ -> ());
  check Alcotest.bool "cgate crash contained into degraded conn" true !degraded;
  check Alcotest.bool "fault site charged" true
    (Stats.get k.Kernel.stats "fault.cgate" >= 1)

(* ---------- satellite: the idle clock restarts on pooled restart ---------- *)

let test_rearm_clears_stale_idle_clock () =
  (* A supervised retry resumes in the same serve fiber after a backoff
     charge.  The idle clock started at admission is then already past
     its deadline through no fault of the fresh attempt — without a
     rearm the pending timer cuts the retry for its predecessor's
     silence. *)
  let clock = Clock.create () in
  let r = Reactor.create ~clock () in
  let g = Guard.create ~idle_deadline_ns:1_000 ~reactor:r ~max_conns:2 () in
  Fiber.run ~clock (fun () ->
      let a, b = Chan.pair () in
      let c =
        match Guard.admit g b with
        | Guard.Admitted c -> c
        | _ -> Alcotest.fail "expected admission"
      in
      Clock.charge clock 2_000;
      Guard.rearm c;
      (* fire the deadline timer that came due at 1001 *)
      Reactor.tick r;
      check Alcotest.int "no spurious cut after rearm" 0 (Guard.stats g).Guard.s_timed_out;
      check Alcotest.bool "no connection left overdue" true
        (Guard.deadline_check ~slack_ns:0 g = None);
      Guard.release c;
      Chan.close a)

let test_staller_pop3_pooled_restamp () =
  (* The integration shape: a pooled supervised worker is cut by the
     idle deadline mid-header; the supervisor restamps from the frozen
     image (restarting the idle clock on the way) and the listener keeps
     serving. *)
  let k = Kernel.create ~costs:Cost_model.free () in
  Wedge_pop3.Pop3_env.install k Wedge_pop3.Pop3_env.default_users;
  let app = W.create_app ~image_pages:60 k in
  W.boot app;
  let main_ctx = W.main_ctx app in
  let l = Chan.listener ~costs:Cost_model.free ~backlog:4 () in
  let r = Reactor.create ~clock:k.Kernel.clock () in
  let guard = Guard.create ~idle_deadline_ns:4_000 ~reactor:r ~max_conns:2 () in
  staller_then_clean
    ~serve_loop:(fun () ->
      (* freeze needs a running fiber, so the pool is built here *)
      let pool = Wedge_pop3.Pop3_wedge.pool main_ctx in
      let tree = Wedge_pop3.Pop3_wedge.supervision_tree ~pool main_ctx in
      Wedge_pop3.Pop3_wedge.serve_loop ~supervision:tree main_ctx guard l)
    ~prefix:"USER ali"
    ~clean:
      (clean_exchange l ~request:"USER alice\r\nPASS wonderland\r\nSTAT\r\nQUIT\r\n"
         ~ok:(fun resp -> contains resp "+OK"))
    k l guard r;
  check Alcotest.bool "workers stamped from the pool" true
    (app.Wedge_core.Engine.pool_hits > 0)

(* ---------- storm determinism ---------- *)

let test_storm_replays_identically () =
  let s =
    match Scenarios.find "httpd_storm" with
    | Some s -> s
    | None -> Alcotest.fail "httpd_storm scenario missing"
  in
  let run () =
    s.Scenarios.s_run ~policy:(Fiber.Random 9) ~diff:false ~faults:true ~seed:5
  in
  let a = run () and b = run () in
  check Alcotest.string "same seed, same storm, byte-identical summary" a b

let () =
  Alcotest.run "recovery"
    [
      ( "backoff",
        [
          Alcotest.test_case "no overflow" `Quick test_backoff_no_overflow;
          Alcotest.test_case "cap pins schedule" `Quick test_backoff_cap_pins_schedule;
        ] );
      ( "tree",
        [
          Alcotest.test_case "escalate + quarantine" `Quick
            test_tree_escalates_and_quarantines;
          Alcotest.test_case "healthy reset" `Quick test_healthy_reset_clears_history;
        ] );
      ( "cancel",
        [ Alcotest.test_case "delivered once" `Quick test_fiber_cancel_delivered_once ] );
      ( "hang",
        [
          Alcotest.test_case "cuts a hung fiber" `Quick test_hang_cuts_hung_fiber;
          Alcotest.test_case "late worker after cut" `Quick
            test_hang_late_worker_dies_contained;
          Alcotest.test_case "all-parked hang is cut" `Quick test_hang_all_parked_is_cut;
        ] );
      ( "reactor",
        [
          Alcotest.test_case "batched readv keeps connection alive" `Quick
            test_reactor_readv_keeps_alive;
          Alcotest.test_case "parked worker cut within deadline" `Quick
            test_reactor_cuts_parked_worker_within_deadline;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "open/shed/recover" `Quick test_breaker_opens_sheds_and_recovers;
          Alcotest.test_case "failed probe reopens" `Quick test_breaker_failed_probe_reopens;
          Alcotest.test_case "trips on rate" `Quick test_breaker_trips_on_rate;
          Alcotest.test_case "brownout sheds every second" `Quick
            test_breaker_brownout_sheds_every_second;
        ] );
      ( "staller",
        [
          Alcotest.test_case "httpd" `Quick test_staller_httpd;
          Alcotest.test_case "pop3" `Quick test_staller_pop3;
          Alcotest.test_case "sshd" `Quick test_staller_sshd;
        ] );
      ( "rearm",
        [
          Alcotest.test_case "clears a stale idle clock" `Quick
            test_rearm_clears_stale_idle_clock;
          Alcotest.test_case "pooled staller restamp" `Quick
            test_staller_pop3_pooled_restamp;
        ] );
      ( "fault-sites",
        [
          Alcotest.test_case "fiber.stall" `Quick test_fiber_stall_site_charges_clock;
          Alcotest.test_case "cgate.call" `Quick test_cgate_call_site_faults_contained;
        ] );
      ( "determinism",
        [ Alcotest.test_case "storm replay" `Quick test_storm_replays_identically ] );
    ]
