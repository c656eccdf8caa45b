(* The benchmark's own checks, one workload per invocation:

     test_perfbench.exe pop3-churn

   - one round passes every check (replies verified, post-run
     invariants, no failed connection) with a real tail: simulated
     p99 > p50;
   - a second round with the same seed gives byte-identical simulated
     metrics;
   - a second seed changes the inputs and the schedule, and still passes
     every check. *)

open Perfbench

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("FAIL " ^ m); exit 1) fmt

let () =
  let name = Sys.argv.(1) in
  let workload seed =
    match List.find_opt (fun w -> w.Report.name = name) (Report.workloads ~seed) with
    | Some w -> w
    | None -> fail "unknown workload %s" name
  in
  let once seed = Report.execute ~rounds:1 ~seconds:0 ~trace:false (workload seed) seed in
  let sim o =
    String.concat " "
      (List.filter_map
         (fun x ->
           if String.starts_with ~prefix:"sim_" x.Report.key then
             Some (x.Report.key ^ "=" ^ x.Report.text)
           else None)
         o.Report.end_to_end)
  in
  let checked seed o =
    if o.Report.problems <> [] then
      fail "%s seed %d: %s" name seed (String.concat "; " o.Report.problems);
    let r = List.hd o.Report.rounds in
    let p q = Report.pct r.Harness.latencies q in
    if not (p 0.99 > p 0.50) then fail "%s seed %d: p99 %d <= p50 %d" name seed (p 0.99) (p 0.50);
    if r.Harness.failed + r.Harness.wrong <> 0 then fail "%s seed %d: failed connections" name seed
  in
  let a = once 1 and a' = once 1 and b = once 2 in
  checked 1 a;
  checked 1 a';
  checked 2 b;
  if sim a <> sim a' || a.Report.digests <> a'.Report.digests then
    fail "%s: one seed, different simulated metrics:\n  %s\n  %s" name (sim a) (sim a');
  if Lazy.force (workload 1).Report.inputs = Lazy.force (workload 2).Report.inputs then
    fail "%s: seeds 1 and 2 give the same inputs" name;
  if a.Report.digests = b.Report.digests then
    fail "%s: seeds 1 and 2 give the same simulated run" name;
  Printf.printf "%s ok: %s\n" name (sim a)
