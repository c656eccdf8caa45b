(* Fault-hook overhead: the injection hooks sit on the hot paths of every
   channel operation and frame allocation, so they must cost nothing when
   no plan is attached and next to nothing when a plan is armed with a 0%
   rate (the hook rolls its rule table but never fires).  Wall-clock, so
   numbers vary by host; the ratio is the point. *)

module Fault_plan = Wedge_fault.Fault_plan
module Fiber = Wedge_sim.Fiber
module Chan = Wedge_net.Chan
module Guard = Wedge_net.Guard
module Fd_table = Wedge_kernel.Fd_table

let iters = 50_000

(* One iteration = client write + server read + server write + client read:
   four hook crossings per round trip. *)
let roundtrips ?faults ?capacity n =
  Fiber.run (fun () ->
      let a, b = Chan.pair ?faults ?capacity () in
      Fiber.spawn (fun () ->
          for _ = 1 to n do
            ignore (Chan.read b 64);
            Chan.write_string b "pong"
          done);
      for _ = 1 to n do
        Chan.write_string a "ping";
        ignore (Chan.read a 64)
      done;
      Chan.close a;
      Chan.close b)

(* Same ping/pong, but the server side reads through the guard's
   deadline-aware endpoint (no deadlines armed — the common fast path). *)
let guarded_roundtrips n =
  Fiber.run (fun () ->
      let a, b = Chan.pair () in
      let g =
        Guard.create ~reactor:(Wedge_sim.Reactor.create ~clock:(Wedge_sim.Clock.create ()) ())
          ~max_conns:1 ()
      in
      let c =
        match Guard.admit g b with Guard.Admitted c -> c | _ -> assert false
      in
      let ep = Guard.endpoint c in
      Fiber.spawn (fun () ->
          for _ = 1 to n do
            ignore (ep.Fd_table.ep_read 64);
            ep.Fd_table.ep_write (Bytes.of_string "pong")
          done);
      for _ = 1 to n do
        Chan.write_string a "ping";
        ignore (Chan.read a 64)
      done;
      Guard.release c;
      Chan.close a;
      Chan.close b)

let zero_rate_plan () =
  let p = Fault_plan.create ~seed:1 () in
  Fault_plan.rule p ~site:"chan.read" ~prob:0. [ Fault_plan.Reset ];
  Fault_plan.rule p ~site:"chan.write" ~prob:0. [ Fault_plan.Reset ];
  p

let run () =
  Bench_util.header
    "Fault-injection and resource-governance hook overhead (wall clock, this host)";
  let (), base = Bench_util.wall_time (fun () -> roundtrips iters) in
  let plan = zero_rate_plan () in
  let (), hooked = Bench_util.wall_time (fun () -> roundtrips ~faults:plan iters) in
  let (), bounded = Bench_util.wall_time (fun () -> roundtrips ~capacity:1024 iters) in
  let (), guarded = Bench_util.wall_time (fun () -> guarded_roundtrips iters) in
  let per_op s = s *. 1e9 /. float_of_int (iters * 4) in
  let overhead s = Printf.sprintf "%+.1f%%" ((s -. base) /. base *. 100.) in
  Bench_util.row3 "configuration" "ns/chan op" "overhead";
  Bench_util.hr ();
  Bench_util.row3 "no fault plan" (Printf.sprintf "%.1f" (per_op base)) "-";
  Bench_util.row3 "armed plan, 0% rate"
    (Printf.sprintf "%.1f" (per_op hooked))
    (overhead hooked);
  Bench_util.row3 "bounded channel (cap 1024)"
    (Printf.sprintf "%.1f" (per_op bounded))
    (overhead bounded);
  Bench_util.row3 "guard endpoint, no deadline"
    (Printf.sprintf "%.1f" (per_op guarded))
    (overhead guarded);
  Printf.printf "  (%d round trips; a plan at 0%% never advances the PRNG,\n" iters;
  print_endline "   so the hook is a hash lookup plus an op counter; the";
  print_endline "   watermark check and the guard's cut/overdue tests add";
  print_endline "   a few comparisons per op)";
  (let oc = open_out "BENCH_guard.json" in
   Printf.fprintf oc
     "{\n\
     \  \"iters\": %d,\n\
     \  \"ops_per_iter\": 4,\n\
     \  \"baseline_ns_per_op\": %.2f,\n\
     \  \"fault_hook_ns_per_op\": %.2f,\n\
     \  \"bounded_channel_ns_per_op\": %.2f,\n\
     \  \"guard_endpoint_ns_per_op\": %.2f\n\
      }\n"
     iters (per_op base) (per_op hooked) (per_op bounded) (per_op guarded);
   close_out oc;
   print_endline "  wrote BENCH_guard.json");
  print_newline ()
