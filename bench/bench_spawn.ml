(* Spawn-cost scaling: fresh sthread boot vs recycled-callgate reuse vs
   pooled-snapshot stamp, as the parent image grows (the Figure 7/8 cost
   story, extended with the snapshot pool).

   Fresh boot pays the fork-priced copy — per-PTE and per-fd — so its
   cost scales with address-space size.  A recycled callgate dodges
   creation entirely but only for the callgate's own body.  A pooled
   stamp re-maps the frozen image in one flat [pool_stamp] charge, so a
   full private compartment costs the same at 60 pages as at 600: this
   is what makes restart-intensity budgets independent of image size.

   Everything runs on the simulated clock under the default (paper-
   shaped) cost model, so BENCH_spawn.json is byte-stable.
   [WEDGE_SPAWN_SMOKE=1] shrinks the size sweep for CI (the gates still
   check flatness and scaling across the endpoints). *)

module Kernel = Wedge_kernel.Kernel
module W = Wedge_core.Wedge
open Bench_util

let smoke =
  match Sys.getenv_opt "WEDGE_SPAWN_SMOKE" with Some "1" -> true | _ -> false

let image_sizes = if smoke then [ 60; 600 ] else [ 60; 150; 300; 600 ]

type point = {
  pages : int;
  fresh_ns : int;
  recycled_ns : int;
  pooled_ns : int;
}

let measure pages =
  let k = Kernel.create () in
  let app = W.create_app ~image_pages:pages k in
  W.boot app;
  let main = W.main_ctx app in
  let noop_body _ _ = 0 in
  (* Fresh: create + run + join a private compartment. *)
  let fresh_ns =
    snd
      (sim_time k (fun () ->
           let h = W.sthread_create main (W.sc_create ()) noop_body 0 in
           ignore (W.sthread_join main h)))
  in
  (* Recycled callgate: steady-state reuse (first call pays creation). *)
  let sc = W.sc_create () in
  let gate =
    W.sc_cgate_add ~recycled:true main sc ~name:"bench.spawn.noop"
      ~entry:(fun _ ~trusted:_ ~arg -> arg)
      ~cgsc:(W.sc_create ()) ~trusted:0
  in
  let h =
    W.sthread_create main sc
      (fun ctx _ ->
        ignore (W.cgate ctx gate ~perms:(W.sc_create ()) ~arg:0);
        snd (sim_time k (fun () -> ignore (W.cgate ctx gate ~perms:(W.sc_create ()) ~arg:0))))
      0
  in
  let recycled_ns = W.sthread_join main h in
  (* Pooled: freeze once, then stamp a full private compartment. *)
  let pool = W.Pool.freeze ~name:"bench.pool" main (W.sc_create ()) in
  ignore (W.Pool.stamp main pool noop_body 0);
  let pooled_ns =
    snd (sim_time k (fun () -> ignore (W.Pool.stamp main pool noop_body 0)))
  in
  { pages; fresh_ns; recycled_ns; pooled_ns }

let run () =
  header "Spawn scaling: fresh boot vs recycled callgate vs pooled stamp";
  let points = List.map measure image_sizes in
  row4 "image (pages)" "fresh" "recycled" "pooled";
  hr ();
  List.iter
    (fun p -> row4 (string_of_int p.pages) (us p.fresh_ns) (us p.recycled_ns) (us p.pooled_ns))
    points;
  let first = List.hd points and last = List.nth points (List.length points - 1) in
  Printf.printf
    "shape: fresh %s -> %s (scales with pages); pooled %s -> %s (flat)\n"
    (us first.fresh_ns) (us last.fresh_ns) (us first.pooled_ns) (us last.pooled_ns);
  (* The gates CI relies on: a stamp is flat as the image grows, and
     never loses to a fresh boot. *)
  if last.pooled_ns <> first.pooled_ns then
    failwith "bench spawn: pooled stamp cost is not flat across image sizes";
  List.iter
    (fun p ->
      if p.pooled_ns > p.fresh_ns then
        failwith
          (Printf.sprintf "bench spawn: pooled (%d ns) beats fresh (%d ns) at %d pages"
             p.pooled_ns p.fresh_ns p.pages))
    points;
  if last.fresh_ns <= first.fresh_ns then
    failwith "bench spawn: fresh boot cost failed to scale with image size";
  Bench_util.write_artifact ~smoke "BENCH_spawn.json" (fun oc ->
   Printf.fprintf oc "{\n  \"points\": [\n";
   List.iteri
     (fun i p ->
       Printf.fprintf oc
         "    { \"image_pages\": %d, \"fresh_ns\": %d, \"recycled_ns\": %d, \"pooled_ns\": %d }%s\n"
         p.pages p.fresh_ns p.recycled_ns p.pooled_ns
         (if i = List.length points - 1 then "" else ","))
     points;
   Printf.fprintf oc "  ],\n  \"pooled_flat\": true,\n  \"simulated\": true\n}\n");
  print_newline ()
