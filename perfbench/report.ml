(* One benchmark run: repeat a workload's round until the time budget is
   spent, check every round, and reduce the rounds to the named metrics.

   Simulated metrics come from the schedule alone, so every round of a
   run must reproduce them exactly (checked); host metrics are medians
   over the untraced rounds.  A traced run alternates untraced and
   traced rounds: per-layer metrics come from the traced ones, and the
   drop in host throughput between the two kinds is the tracing
   overhead. *)

open Harness

type workload = {
  name : string;
  conns : int;
  shards : int;
  clients : int;  (** closed-loop clients, all shards together *)
  inputs : string Lazy.t;  (** digest of the seeded inputs *)
  run : tracer -> round;
}

let digest x = Digest.to_hex (Digest.string (Marshal.to_string x []))

let workloads ~seed =
  [
    (let inp = lazy (W_pop3.inputs ~seed) in
     {
       name = "pop3-churn";
       conns = W_pop3.conns;
       shards = W_pop3.shards;
       clients = W_pop3.shards * W_pop3.clients_per_shard;
       inputs = lazy (digest (Lazy.force inp));
       run = (fun tr -> W_pop3.run (Lazy.force inp) tr);
     });
    (let inp = lazy (W_https.inputs ~seed) in
     {
       name = "https-mixed";
       conns = W_https.conns;
       shards = 1;
       clients = W_https.clients;
       inputs = lazy (digest (Lazy.force inp));
       run = (fun tr -> W_https.run (Lazy.force inp) tr);
     });
    (let inp = lazy (W_ssh.inputs ~seed) in
     {
       name = "ssh-upload";
       conns = W_ssh.conns;
       shards = 1;
       clients = W_ssh.clients;
       inputs = lazy (digest (Lazy.force inp));
       run = (fun tr -> W_ssh.run (Lazy.force inp) tr);
     });
  ]

let names = List.map (fun w -> w.name) (workloads ~seed:0)

(* ------------------------------------------------------------------ *)
(* Reductions                                                          *)

let median_f l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let pct (a : int array) p = Bench_util.percentile (Array.to_list a) p

(* Everything a round's simulated clock and counters determine — equal
   across rounds of one seed, traced or not. *)
let sim_digest (r : round) =
  digest (r.attempted, r.failed, r.wrong, r.latencies, r.makespan, r.sim_total, r.counts)

type metric = { key : string; value : float; unit_ : string; text : string }

let m key unit_ value = { key; value; unit_; text = Printf.sprintf "%.17g" value }

(* Simulated ns as exact microseconds. *)
let us key ns =
  { key; value = float_of_int ns /. 1e3; unit_ = "us"; text = Printf.sprintf "%d.%03d" (ns / 1000) (ns mod 1000) }

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

type outcome = {
  workload : workload;
  seed : int;
  trace : bool;
  rounds : round list;  (** in run order *)
  traced : bool list;  (** which rounds were traced *)
  digests : string list;
  end_to_end : metric list;
  per_layer : metric list;
  problems : string list;  (** failed checks; empty when correct *)
}

(* The lower median of the rounds' set-up means: one round's figures, so
   its [setup.*] phases add up to [setup_s] exactly. *)
let median_setup rs =
  let a = Array.of_list (List.map (fun r -> r.setup) rs) in
  Array.sort (fun x y -> compare (setup_total x) (setup_total y)) a;
  a.((Array.length a - 1) / 2)

let end_to_end w (first : round) untraced =
  let lat = first.latencies in
  let setup = median_setup untraced in
  [
    us "sim_p50_us" (pct lat 0.50);
    us "sim_p99_us" (pct lat 0.99);
    us "sim_p999_us" (pct lat 0.999);
    m "sim_conns_per_s" "conn/s" (float_of_int w.conns /. (float_of_int first.makespan /. 1e9));
    m "host_conns_per_s" "conn/s"
      (median_f (List.map (fun r -> float_of_int w.conns /. r.load_s) untraced));
    m "host_alloc_words_per_conn" "words"
      (median_f (List.map (fun r -> r.alloc_words /. float_of_int w.conns) untraced));
    (* After the first round: the peak of a process that built the world
       and served the load once.  The peak after later rounds grows with
       the round count (the major heap does not shrink), so it would
       measure the run length. *)
    m "host_peak_heap_mb" "MB" (float_of_int (first.top_heap_words * (Sys.word_size / 8)) /. 1e6);
    m "setup_s" "s" (setup_total setup);
  ]

let app_ops =
  [
    "app.pop3.login"; "app.pop3.retr"; "app.https.full"; "app.https.resumed"; "app.ssh.login";
    "app.ssh.upload";
  ]

let per_layer w (first : round) untraced traced =
  let c = first.counts in
  let g = get c in
  let per_conn k = ratio (g k) w.conns in
  let traps =
    List.fold_left
      (fun a (k, v) ->
        if String.starts_with ~prefix:"trap." k && k <> "trap.batched_ops" then a + v else a)
      0 c
  in
  let trap_ns = Wedge_sim.Cost_model.default.Wedge_sim.Cost_model.syscall_trap in
  let spans = List.concat_map (fun r -> r.spans) traced in
  let op_p50 name =
    let sel = List.filter (fun s -> s.sp_name = name) spans in
    let sim = Array.of_list (List.map (fun s -> s.sp_sim1 - s.sp_sim0) sel) in
    Array.sort compare sim;
    let host = List.map (fun s -> (s.sp_host1 -. s.sp_host0) *. 1e6) sel in
    [ us (name ^ ".sim_us") (pct sim 0.50); m (name ^ ".host_us") "us" (median_f host) ]
  in
  let cps rs = median_f (List.map (fun r -> float_of_int w.conns /. r.load_s) rs) in
  let setup = median_setup traced in
  [
    m "sim.switches_per_conn" "count" (per_conn "switches");
    m "sim.idle_host_frac" "ratio" (median_f (List.map (fun r -> r.idle_s /. r.load_s) traced));
    m "sim.reactor_parks_per_conn" "count" (per_conn "reactor_parks");
    m "sim.reactor_wakeups_per_conn" "count" (per_conn "reactor_wakeups");
    m "kernel.traps_per_conn" "count" (ratio traps w.conns);
    m "kernel.trap_sim_frac" "ratio" (ratio (traps * trap_ns) first.sim_total);
    m "kernel.tlb_miss_ratio" "ratio" (ratio (g "tlb.miss") (g "tlb.miss" + g "tlb.hit"));
    m "kernel.tlb_shootdowns_per_conn" "count" (per_conn "tlb.shootdown");
    m "kernel.frames_leaked" "count" (float_of_int (g "frames_leaked"));
    m "mem.tag_reuse_ratio" "ratio"
      (ratio (g "tag_new.reuse") (g "tag_new.reuse" + g "tag_new.fresh"));
    m "mem.tag_cache_hit_ratio" "ratio"
      (ratio (g "tag_cache.hits") (g "tag_cache.hits" + g "tag_cache.misses"));
    m "core.sthreads_per_conn" "count" (per_conn "trap.sthread_create");
    m "core.cgates_per_conn" "count" (per_conn "trap.cgate");
    m "core.compartment_faults" "count" (float_of_int (g "fault.compartment"));
    m "net.xshard_shootdowns" "count" (float_of_int (g "xshard_shootdowns"));
    m "net.guard_rejected" "count" (float_of_int (g "guard_rejected"));
    m "net.refused" "count" (float_of_int (g "refused"));
    m "failed_frac" "ratio" (ratio (first.failed + first.wrong) first.attempted);
    m "crypto.full_handshake_frac" "ratio" (per_conn "full_handshakes");
  ]
  @ List.concat_map op_p50 app_ops
  @ [
      m "setup.keygen_s" "s" setup.keygen;
      m "setup.boot_s" "s" setup.boot;
      m "setup.fabric_s" "s" setup.fabric;
      m "trace.overhead_frac" "ratio" (1. -. (cps traced /. cps untraced));
    ]

(* ------------------------------------------------------------------ *)
(* Running                                                             *)

(* Round 0 warms the process up (lazy keys, heap growth): it is checked
   like every round but its host numbers are not used.  Further rounds
   run until the next one would overrun [seconds]; a plain run measures
   at least one, a traced run alternates traced and untraced rounds and
   measures at least one of each.  [rounds] fixes the count instead
   (tests), within the same minimum. *)
let execute ?rounds ~seconds ~trace w seed =
  let t0 = host_now () in
  let rec go i acc =
    let tr = tracer (trace && i mod 2 = 1) in
    let h = host_now () in
    let r = w.run tr in
    let acc = (r, tr.on) :: acc in
    let last = host_now () -. h in
    let need = if trace then 3 else 2 in
    let more =
      match rounds with
      | Some n -> i + 1 < max n need
      | None -> i + 1 < need || host_now () -. t0 +. last <= float_of_int seconds
    in
    if more then go (i + 1) acc else List.rev acc
  in
  let rs = go 0 [] in
  let rounds = List.map fst rs and traced = List.map snd rs in
  let first = List.hd rounds in
  let measured = match rs with [ _ ] -> rs | _ :: tl -> tl | [] -> [] in
  let untraced = List.filter_map (fun (r, t) -> if t then None else Some r) measured in
  let traced_rounds = List.filter_map (fun (r, t) -> if t then Some r else None) measured in
  let digests = List.map sim_digest rounds in
  let problems =
    List.concat_map (fun r -> r.violations) rounds
    @ first.failures
    @ (if List.for_all (( = ) (List.hd digests)) digests then []
       else [ "simulated metrics differ between rounds of one seed" ])
    @
    if pct first.latencies 0.99 > pct first.latencies 0.50 then []
    else [ "degenerate tail: simulated p99 <= p50" ]
  in
  {
    workload = w;
    seed;
    trace;
    rounds;
    traced;
    digests;
    end_to_end = end_to_end w first untraced;
    per_layer = (if trace then per_layer w first untraced traced_rounds else []);
    problems;
  }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

(* A JSON string literal (OCaml's %S escapes are not all valid JSON). *)
let js s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c ->
          Buffer.add_char b '\\';
          Buffer.add_char b c
      | c when Char.code c < 0x20 || Char.code c > 0x7e ->
          Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun x -> Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (js x.key) x.text (js x.unit_))
       ms)

(* [attempted] and [failed] count connections over every round of the
   run. *)
let result_line o =
  let sum f = List.fold_left (fun a r -> a + f r) 0 o.rounds in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (o.problems = []) (sum (fun r -> r.attempted)) (sum (fun r -> r.failed + r.wrong))
    (json_metrics (if o.trace then o.per_layer else o.end_to_end))

(* The full record: provenance, the exact simulated integers, and the
   noisy host numbers per round, kept apart. *)
let report_json o =
  let w = o.workload and first = List.hd o.rounds in
  let floats l = String.concat ", " (List.map (Printf.sprintf "%.17g") l) in
  let lat = first.latencies in
  Printf.sprintf
    "{\n\
    \  \"provenance\": {\"workload\": %s, \"seed\": %d, \"conns\": %d, \"shards\": %d, \
     \"clients\": %d, \"rounds\": %d, \"traced_rounds\": %d, \"setup_builds_per_round\": %d, \
     \"nproc\": %d, \"ocaml\": %s, \"load\": \"closed-loop\"},\n\
    \  \"simulated\": {\"digest\": %s, \"latency_ns\": {\"p50\": %d, \"p99\": %d, \"p999\": %d, \
     \"samples_beyond_p999\": %d}, \"makespan_ns\": %d, \"sim_total_ns\": %d, \"failed\": %d, \
     \"wrong\": %d,\n    \"counts\": {%s}},\n\
    \  \"host\": {\"load_s\": [%s], \"alloc_words\": [%s], \"idle_s\": [%s], \"setup_s\": [%s], \
     \"traced\": [%s]},\n\
    \  \"end_to_end\": {%s},\n\
    \  \"per_layer\": {%s},\n\
    \  \"problems\": [%s]\n\
     }\n"
    (js w.name) o.seed w.conns w.shards w.clients (List.length o.rounds)
    (List.length (List.filter Fun.id o.traced))
    setup_reps (Domain.recommended_domain_count ()) (js Sys.ocaml_version) (js (List.hd o.digests))
    (pct lat 0.50) (pct lat 0.99) (pct lat 0.999)
    (Array.length lat - 1 - int_of_float (ceil (0.999 *. float_of_int (Array.length lat - 1))))
    first.makespan first.sim_total first.failed first.wrong
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s: %d" (js k) v) first.counts))
    (floats (List.map (fun r -> r.load_s) o.rounds))
    (floats (List.map (fun r -> r.alloc_words) o.rounds))
    (floats (List.map (fun r -> r.idle_s) o.rounds))
    (floats (List.map (fun r -> setup_total r.setup) o.rounds))
    (String.concat ", " (List.map string_of_bool o.traced))
    (json_metrics o.end_to_end) (json_metrics o.per_layer)
    (String.concat ", " (List.map js o.problems))

(* Spans of the last traced round, host times in microseconds from the
   round's first span. *)
let spans_json o =
  match List.rev (List.filter_map (fun (r, t) -> if t then Some r else None)
                   (List.combine o.rounds o.traced)) with
  | [] -> None
  | r :: _ ->
      let h0 = List.fold_left (fun a s -> min a s.sp_host0) infinity r.spans in
      let b = Buffer.create (1 lsl 16) in
      Buffer.add_string b "[\n";
      List.iteri
        (fun i s ->
          if i > 0 then Buffer.add_string b ",\n";
          Printf.bprintf b
            "{\"id\": %d, \"parent\": %d, \"name\": %s, \"conn\": %d, \"sim0_ns\": %d, \
             \"sim1_ns\": %d, \"host0_us\": %.3f, \"host1_us\": %.3f}"
            s.sp_id s.sp_parent (js s.sp_name) s.sp_conn s.sp_sim0 s.sp_sim1
            ((s.sp_host0 -. h0) *. 1e6) ((s.sp_host1 -. h0) *. 1e6))
        (List.sort (fun a b -> compare a.sp_id b.sp_id) r.spans);
      Buffer.add_string b "\n]\n";
      Some (Buffer.contents b)

let print_human o =
  let w = o.workload in
  Printf.printf "workload %s  seed %d  %d conns  %d shard(s)  %d clients  %d round(s)%s\n"
    (js w.name) o.seed w.conns w.shards w.clients (List.length o.rounds)
    (if o.trace then " (traced run)" else "");
  List.iter (fun x -> Printf.printf "  %-36s %s %s\n" x.key x.text x.unit_) o.end_to_end;
  List.iter (fun x -> Printf.printf "  %-36s %s %s\n" x.key x.text x.unit_) o.per_layer;
  List.iter (Printf.printf "  PROBLEM: %s\n") o.problems
