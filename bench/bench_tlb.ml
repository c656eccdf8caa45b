(* Software-TLB fast path: wall-clock ns/op for the checked memory
   accessors, against the pre-TLB translation path measured in the same
   run.  The legacy baseline below replicates, through public API, what
   the old Vm did for every access: a per-byte page-table hash lookup and
   protection check (and for bulk reads, one lookup per page but one call
   per byte of multi-byte values).  Numbers vary by host; the ratios and
   the JSON gate (warm fast path strictly cheaper than legacy) are the
   point.

   Modes: full run prints the table and writes BENCH_tlb.json; with
   WEDGE_TLB_SMOKE=1 iteration counts shrink ~20x and the process exits
   nonzero if the warm-TLB u8 path is not measurably cheaper than the
   legacy path — check.sh uses this as a perf-regression gate. *)

module Clock = Wedge_sim.Clock
module Cost_model = Wedge_sim.Cost_model
module Physmem = Wedge_kernel.Physmem
module Pagetable = Wedge_kernel.Pagetable
module Prot = Wedge_kernel.Prot
module Vm = Wedge_kernel.Vm

let page_size = Physmem.page_size
let base = 0x40000000
let pages = 16

let smoke () =
  match Sys.getenv_opt "WEDGE_TLB_SMOKE" with Some "1" -> true | _ -> false

let mk_vm () =
  let pm = Physmem.create () in
  let clock = Clock.create () in
  let vm = Vm.create ~pid:1 pm clock Cost_model.default in
  Vm.map_fresh vm ~addr:base ~pages ~prot:Prot.page_rw ~tag:None;
  (* Give the pages recognisable content. *)
  for i = 0 to (pages * page_size / 8) - 1 do
    Vm.write_u64 vm (base + (i * 8)) (i * 0x9E3779B9)
  done;
  (pm, vm)

(* ---------------------------------------------------------------- *)
(* Legacy translation path, replicated through public API: what the
   old pte_for did on every byte — hashtable walk + protection check +
   frame fetch.  (The old path also rolled the fault plan per byte; we
   omit that here, which only makes the baseline faster and the
   comparison more conservative.) *)

let legacy_translate pm pt addr =
  match Pagetable.find pt ~vpn:(addr lsr 12) with
  | None -> failwith "legacy: unmapped"
  | Some pte ->
      if not pte.Pagetable.prot.Prot.pr then failwith "legacy: no read";
      Physmem.get pm pte.Pagetable.frame

let legacy_read_u8 pm pt addr =
  Char.code (Bytes.get (legacy_translate pm pt addr) (addr land (page_size - 1)))

let legacy_read_u64 pm pt addr =
  (* Byte-at-a-time chaining, as the old read_u64 did via read_u32. *)
  let rec go i acc =
    if i = 8 then acc
    else go (i + 1) (acc lor (legacy_read_u8 pm pt (addr + i) lsl (8 * i)))
  in
  go 0 0

let legacy_blit pm pt addr len =
  let buf = Bytes.create len in
  let rec go a pos remaining =
    if remaining > 0 then begin
      let off = a land (page_size - 1) in
      let chunk = min remaining (page_size - off) in
      let b = legacy_translate pm pt a in
      Bytes.blit b off buf pos chunk;
      go (a + chunk) (pos + chunk) (remaining - chunk)
    end
  in
  go addr 0 len;
  buf

(* ---------------------------------------------------------------- *)

let run () =
  Bench_util.header "Software-TLB fast path vs legacy translation (wall clock, this host)";
  let scale = if smoke () then 20 else 1 in
  let u8_iters = 2_000_000 / scale in
  let u64_iters = 1_000_000 / scale in
  let blit_iters = 40_000 / scale in
  let pm, vm = mk_vm () in
  let pt = Vm.page_table vm in
  let sink = ref 0 in
  (* Rotate across all mapped pages so every TLB slot in play gets used. *)
  let addr_of i = base + (i land (pages - 1) * page_size) + (i * 7 land (page_size - 8)) in

  let (), legacy_u8 =
    Bench_util.wall_time (fun () ->
        for i = 0 to u8_iters - 1 do
          sink := !sink + legacy_read_u8 pm pt (addr_of i)
        done)
  in
  (* Warm the TLB, then measure steady-state hits. *)
  for i = 0 to pages - 1 do
    ignore (Vm.read_u8 vm (base + (i * page_size)))
  done;
  let (), warm_u8 =
    Bench_util.wall_time (fun () ->
        for i = 0 to u8_iters - 1 do
          sink := !sink + Vm.read_u8 vm (addr_of i)
        done)
  in
  (* Cold: every access runs the miss path (flush first).  Far fewer
     iterations — each flush walks 64 slots. *)
  let cold_iters = u8_iters / 20 in
  let (), cold_u8 =
    Bench_util.wall_time (fun () ->
        for i = 0 to cold_iters - 1 do
          Vm.tlb_flush vm;
          sink := !sink + Vm.read_u8 vm (addr_of i)
        done)
  in
  let (), legacy_u64 =
    Bench_util.wall_time (fun () ->
        for i = 0 to u64_iters - 1 do
          sink := !sink + legacy_read_u64 pm pt (base + (i land (pages - 1) * page_size) + (i * 8 land (page_size - 8)))
        done)
  in
  let (), warm_u64 =
    Bench_util.wall_time (fun () ->
        for i = 0 to u64_iters - 1 do
          sink := !sink + Vm.read_u64 vm (base + (i land (pages - 1) * page_size) + (i * 8 land (page_size - 8)))
        done)
  in
  let (), legacy_blit4k =
    Bench_util.wall_time (fun () ->
        for i = 0 to blit_iters - 1 do
          sink := !sink + Bytes.length (legacy_blit pm pt (base + (i land (pages - 1) * page_size)) page_size)
        done)
  in
  let (), warm_blit4k =
    Bench_util.wall_time (fun () ->
        for i = 0 to blit_iters - 1 do
          sink := !sink + Bytes.length (Vm.read_bytes vm (base + (i land (pages - 1) * page_size)) page_size)
        done)
  in
  (* Post-shootdown: a protect_range revocation kills the cached entry;
     the next access pays the miss, later ones hit again.  Measures the
     revoke + refill round trip on one page. *)
  let shoot_iters = u8_iters / 20 in
  let (), post_shootdown =
    Bench_util.wall_time (fun () ->
        for i = 0 to shoot_iters - 1 do
          Vm.protect_range vm ~addr:base ~pages:1 ~prot:Prot.page_rw;
          sink := !sink + Vm.read_u8 vm (base + (i land (page_size - 1)))
        done)
  in
  ignore !sink;

  let per t n = t *. 1e9 /. float_of_int n in
  let l_u8 = per legacy_u8 u8_iters
  and w_u8 = per warm_u8 u8_iters
  and c_u8 = per cold_u8 cold_iters
  and l_u64 = per legacy_u64 u64_iters
  and w_u64 = per warm_u64 u64_iters
  and l_blit = per legacy_blit4k blit_iters
  and w_blit = per warm_blit4k blit_iters
  and s_u8 = per post_shootdown shoot_iters in
  let f = Printf.sprintf "%.1f" in
  let x a b = Printf.sprintf "%.1fx" (a /. b) in
  Bench_util.row3 "operation" "ns/op" "speedup";
  Bench_util.hr ();
  Bench_util.row3 "read_u8   legacy (per-byte walk)" (f l_u8) "-";
  Bench_util.row3 "read_u8   warm TLB" (f w_u8) (x l_u8 w_u8);
  Bench_util.row3 "read_u8   cold (miss + fill)" (f c_u8) "-";
  Bench_util.row3 "read_u64  legacy (8 walks)" (f l_u64) "-";
  Bench_util.row3 "read_u64  warm TLB (1 translation)" (f w_u64) (x l_u64 w_u64);
  Bench_util.row3 "4KiB blit legacy" (f l_blit) "-";
  Bench_util.row3 "4KiB blit warm TLB" (f w_blit) (x l_blit w_blit);
  Bench_util.row3 "revoke + next access (shootdown)" (f s_u8) "-";
  Printf.printf "  tlb: %d hits, %d misses, %d shootdowns this run\n" (Vm.tlb_hits vm)
    (Vm.tlb_misses vm) (Vm.tlb_shootdowns vm);
  Bench_util.write_artifact ~smoke:(smoke ()) "BENCH_tlb.json" (fun oc ->
   Printf.fprintf oc
     "{\n\
     \  \"u8_iters\": %d,\n\
     \  \"legacy_u8_ns\": %.2f,\n\
     \  \"warm_u8_ns\": %.2f,\n\
     \  \"cold_u8_ns\": %.2f,\n\
     \  \"legacy_u64_ns\": %.2f,\n\
     \  \"warm_u64_ns\": %.2f,\n\
     \  \"legacy_blit4k_ns\": %.2f,\n\
     \  \"warm_blit4k_ns\": %.2f,\n\
     \  \"post_shootdown_u8_ns\": %.2f,\n\
     \  \"u8_speedup\": %.2f,\n\
     \  \"u64_speedup\": %.2f,\n\
     \  \"blit4k_speedup\": %.2f\n\
      }\n"
     u8_iters l_u8 w_u8 c_u8 l_u64 w_u64 l_blit w_blit s_u8 (l_u8 /. w_u8) (l_u64 /. w_u64)
     (l_blit /. w_blit));
  if smoke () then
    if w_u8 >= l_u8 then begin
      Printf.eprintf
        "bench tlb: FAIL - warm-TLB u8 (%.1f ns) not cheaper than legacy path (%.1f ns)\n" w_u8
        l_u8;
      exit 1
    end
    else Printf.printf "  smoke gate: warm u8 %.1f ns < legacy %.1f ns - OK\n" w_u8 l_u8;
  print_newline ()
