module Clock = Wedge_sim.Clock
module Kernel = Wedge_kernel.Kernel

let hr () = print_endline (String.make 78 '-')

let header title =
  print_newline ();
  hr ();
  Printf.printf "%s\n" title;
  hr ()

let row3 a b c = Printf.printf "%-34s %20s %20s\n" a b c
let row4 a b c d = Printf.printf "%-30s %14s %14s %16s\n" a b c d
let us v = Printf.sprintf "%.1f us" (float_of_int v /. 1e3)
let ns v = Printf.sprintf "%d ns" v
let ms v = Printf.sprintf "%.2f ms" (float_of_int v /. 1e6)
let ratio r = Printf.sprintf "%.1fx" r

let sim_time (k : Kernel.t) f =
  let t0 = Clock.now k.Kernel.clock in
  let v = f () in
  (v, Clock.now k.Kernel.clock - t0)

let wall_once f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let wall_time f =
  let v, t1 = wall_once f in
  let _, t2 = wall_once f in
  let _, t3 = wall_once f in
  (v, min t1 (min t2 t3))

(* Smoke runs must not overwrite the committed full-scale artifacts. *)
let write_artifact ~smoke name write =
  let path = if smoke then Filename.concat (Filename.get_temp_dir_name ()) name else name in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc);
  Printf.printf "  wrote %s\n" path

(* Percentile by rank on an already-sorted sample list: index
   ceil(p * (n-1)), clamped.  Hoisted here because bench_reactor and
   bench_recovery had drifted their own copies of the same formula; the
   unit tests in test_bench pin the rank arithmetic at the boundaries. *)
let percentile sorted p =
  match sorted with
  | [] -> 0
  | l ->
      let a = Array.of_list l in
      let n = Array.length a in
      let idx = int_of_float (ceil (p *. float_of_int (n - 1))) in
      a.(max 0 (min (n - 1) idx))

(* A skewed request mix.  A uniform request shape makes every sample
   identical, so p50 == p99 and a latency regression in the tail is
   invisible — the measurement bug the reactor bench shipped with.  Real
   traffic is long-tailed; this is the smallest honest model of it:
   90% small requests, 9% medium, 1% large (rounded up so every class
   is represented even in tiny populations). *)
type shape = { sh_chunks : int; sh_chunk_bytes : int }

let shape_small = { sh_chunks = 8; sh_chunk_bytes = 8 }
let shape_medium = { sh_chunks = 16; sh_chunk_bytes = 32 }
let shape_large = { sh_chunks = 64; sh_chunk_bytes = 64 }
let shape_bytes s = s.sh_chunks * s.sh_chunk_bytes

let shape_label s =
  if s == shape_large then "large"
  else if s == shape_medium then "medium"
  else "small"

(* Stratified assignment: exact class counts (no sampling noise), then a
   Fisher-Yates shuffle under a local LCG so placement is still varied.
   No [Random]: the stream must be identical across hosts and OCaml
   versions, because the shapes feed simulated costs that land in
   byte-stable artifacts. *)
let skewed_classes ~seed ~n =
  if n <= 0 then [||]
  else begin
    let n_large = min n (max 1 (n / 100)) in
    let n_medium = min (n - n_large) (max 2 (9 * n / 100)) in
    let a = Array.make n shape_small in
    for i = 0 to n_large - 1 do
      a.(i) <- shape_large
    done;
    for i = n_large to n_large + n_medium - 1 do
      a.(i) <- shape_medium
    done;
    let state = ref (((seed * 2654435761) + 1) land 0x3fffffff) in
    let next bound =
      state := ((!state * 1103515245) + 12345) land 0x3fffffff;
      !state mod bound
    in
    for i = n - 1 downto 1 do
      let j = next (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  end
