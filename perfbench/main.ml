(* perfbench: run one workload for a time budget and print its metrics.

     main.exe --workload pop3-churn --seed 1 --seconds 40 --trace 0

   The last line of standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with [--trace 0], the per-layer ones with [--trace 1].  The full
   report (provenance, exact simulated integers, per-round host numbers)
   and, for a traced run, its spans go under [--out]. *)

open Perfbench

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let out = ref "perfbench/results" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " Report.names);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S time budget for the measured rounds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--out", Arg.Set_string out, "DIR where the report and spans go (empty: none)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.Report.name = !workload) (Report.workloads ~seed:!seed) with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ !workload ^ "; one of: " ^ String.concat ", " Report.names);
        exit 2
  in
  let o = Report.execute ~seconds:!seconds ~trace:(!trace = 1) w !seed in
  Report.print_human o;
  if !out <> "" then begin
    (try Sys.mkdir !out 0o755 with Sys_error _ -> ());
    let base = Printf.sprintf "%s/%s-seed%d-trace%d" !out w.Report.name !seed !trace in
    let write path s = Out_channel.with_open_text path (fun oc -> output_string oc s) in
    write (base ^ ".json") (Report.report_json o);
    Option.iter (write (base ^ "-spans.json")) (Report.spans_json o)
  end;
  print_endline (Report.result_line o);
  if o.Report.problems <> [] then exit 1
