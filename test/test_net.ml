(* Network simulator tests: channel semantics (including simulated RTT
   charging), line-oriented I/O, listener lifecycle, and the MITM
   interposer's replace/drop/inject actions. *)

module Fiber = Wedge_sim.Fiber
module Clock = Wedge_sim.Clock
module Cost_model = Wedge_sim.Cost_model
module Chan = Wedge_net.Chan
module Lineio = Wedge_net.Lineio
module Mitm = Wedge_net.Mitm

let check = Alcotest.check

(* ---------- chan ---------- *)

let test_partial_reads () =
  Fiber.run (fun () ->
      let a, b = Chan.pair () in
      Chan.write_string b "abcdef";
      check Alcotest.string "up to n" "abc" (Bytes.to_string (Chan.read a 3));
      check Alcotest.string "rest" "def" (Bytes.to_string (Chan.read a 100)))

let test_read_exact_across_writes () =
  Fiber.run (fun () ->
      let a, b = Chan.pair () in
      Fiber.spawn (fun () ->
          Chan.write_string b "hel";
          Fiber.yield ();
          Chan.write_string b "lo!");
      check (Alcotest.option Alcotest.string) "stitched" (Some "hello!")
        (Option.map Bytes.to_string (Chan.read_exact a 6)))

let test_read_exact_eof_mid_message () =
  Fiber.run (fun () ->
      let a, b = Chan.pair () in
      Chan.write_string b "par";
      Chan.close b;
      check Alcotest.bool "None on short" true (Chan.read_exact a 6 = None))

let test_write_after_close_rejected () =
  Fiber.run (fun () ->
      let _, b = Chan.pair () in
      Chan.close b;
      match Chan.write_string b "x" with
      | () -> Alcotest.fail "expected rejection"
      | exception Invalid_argument _ -> ())

let test_blocking_read_charges_rtt () =
  let clock = Clock.create () in
  Fiber.run (fun () ->
      let a, b = Chan.pair ~clock ~costs:Cost_model.default () in
      Fiber.spawn (fun () -> Chan.write_string b "x");
      let t0 = Clock.now clock in
      ignore (Chan.read a 1);
      check Alcotest.bool "blocked read charged half RTT" true
        (Clock.now clock - t0 >= Cost_model.default.Cost_model.net_rtt / 2));
  (* A non-blocking read charges nothing. *)
  let clock2 = Clock.create () in
  Fiber.run (fun () ->
      let a, b = Chan.pair ~clock:clock2 ~costs:Cost_model.default () in
      Chan.write_string b "y";
      let t0 = Clock.now clock2 in
      ignore (Chan.read a 1);
      check Alcotest.int "immediate read free" t0 (Clock.now clock2))

let test_bytes_in_flight () =
  Fiber.run (fun () ->
      let a, b = Chan.pair () in
      Chan.write_string b "12345";
      check Alcotest.int "buffered" 5 (Chan.bytes_in_flight a);
      ignore (Chan.read a 2);
      check Alcotest.int "drained" 3 (Chan.bytes_in_flight a))

let test_listener_shutdown () =
  Fiber.run (fun () ->
      let l = Chan.listener () in
      let got = ref `Pending in
      Fiber.spawn (fun () ->
          match Chan.accept l with Some _ -> got := `Conn | None -> got := `Down);
      Fiber.yield ();
      Chan.shutdown l;
      Fiber.yield ();
      check Alcotest.bool "accept returned None" true (!got = `Down);
      (* A down listener refuses (a contained, supervisable condition),
         never Invalid_argument (which would escape containment). *)
      (match Chan.connect l with
      | _ -> Alcotest.fail "connect after shutdown"
      | exception Chan.Refused _ -> ());
      check Alcotest.int "refusal counted" 1 (Chan.refused l))

let test_listener_queueing () =
  Fiber.run (fun () ->
      let l = Chan.listener () in
      let c1 = Chan.connect l in
      let c2 = Chan.connect l in
      check Alcotest.int "two pending" 2 (Chan.pending l);
      Chan.write_string c1 "1";
      Chan.write_string c2 "2";
      let s1 = Option.get (Chan.accept l) in
      let s2 = Option.get (Chan.accept l) in
      check Alcotest.string "fifo order" "1" (Bytes.to_string (Chan.read s1 1));
      check Alcotest.string "fifo order 2" "2" (Bytes.to_string (Chan.read s2 1)))

(* ---------- lineio ---------- *)

let mk_lineio input =
  let pos = ref 0 in
  let recv n =
    let len = min n (String.length input - !pos) in
    let b = Bytes.of_string (String.sub input !pos len) in
    pos := !pos + len;
    b
  in
  let out = Buffer.create 32 in
  (Lineio.create ~recv ~send:(Buffer.add_bytes out) (), out)

let test_lineio_lines () =
  let io, _ = mk_lineio "one\r\ntwo\nthree" in
  check (Alcotest.option Alcotest.string) "crlf" (Some "one") (Lineio.read_line io);
  check (Alcotest.option Alcotest.string) "lf" (Some "two") (Lineio.read_line io);
  check (Alcotest.option Alcotest.string) "unterminated tail" (Some "three") (Lineio.read_line io);
  check (Alcotest.option Alcotest.string) "eof" None (Lineio.read_line io)

let test_lineio_empty_lines () =
  let io, _ = mk_lineio "\r\n\na" in
  check (Alcotest.option Alcotest.string) "empty crlf" (Some "") (Lineio.read_line io);
  check (Alcotest.option Alcotest.string) "empty lf" (Some "") (Lineio.read_line io);
  check (Alcotest.option Alcotest.string) "tail" (Some "a") (Lineio.read_line io)

let test_lineio_eof_cr_tail () =
  (* Regression: a final line terminated by EOF right after '\r' (the
     peer died between the '\r' and the '\n') must strip the '\r' just
     like the newline path does. *)
  let io, _ = mk_lineio "QUIT\r" in
  check (Alcotest.option Alcotest.string) "cr tail stripped" (Some "QUIT")
    (Lineio.read_line io);
  check (Alcotest.option Alcotest.string) "eof after tail" None (Lineio.read_line io);
  (* Only one trailing '\r' is stripped; interior ones survive. *)
  let io2, _ = mk_lineio "a\rb\r" in
  check (Alcotest.option Alcotest.string) "interior cr kept" (Some "a\rb")
    (Lineio.read_line io2)

let test_lineio_read_exact_mixes_with_lines () =
  let io, _ = mk_lineio "HDR\r\nBODYBODY!" in
  check (Alcotest.option Alcotest.string) "line" (Some "HDR") (Lineio.read_line io);
  check (Alcotest.option Alcotest.string) "exact" (Some "BODYBODY!")
    (Option.map Bytes.to_string (Lineio.read_exact io 9));
  check Alcotest.bool "short read is None" true (Lineio.read_exact io 5 = None)

let test_lineio_write_line () =
  let io, out = mk_lineio "" in
  Lineio.write_line io "hello";
  check Alcotest.string "crlf appended" "hello\r\n" (Buffer.contents out)

(* ---------- mitm actions ---------- *)

let run_mitm handler client_script server_script =
  let mitm = Mitm.create ~handler () in
  Fiber.run (fun () ->
      let client_ep, mitm_client = Chan.pair () in
      let mitm_server, server_ep = Chan.pair () in
      Mitm.splice mitm ~client_side:mitm_client ~server_side:mitm_server;
      Fiber.spawn (fun () -> server_script server_ep);
      client_script client_ep;
      Chan.close client_ep);
  mitm

let test_mitm_replace () =
  let seen = ref "" in
  let handler dir chunk =
    match dir with
    | Mitm.Client_to_server when Bytes.to_string chunk = "attack-me" ->
        Mitm.Replace (Bytes.of_string "replaced!")
    | _ -> Mitm.Forward
  in
  let _ =
    run_mitm handler
      (fun c ->
        Chan.write_string c "attack-me";
        Fiber.yield ())
      (fun s -> seen := Bytes.to_string (Option.get (Chan.read_exact s 9)))
  in
  check Alcotest.string "server saw the substitution" "replaced!" !seen

let test_mitm_drop () =
  let seen = ref "" in
  let handler dir chunk =
    if dir = Mitm.Client_to_server && Bytes.to_string chunk = "secret" then Mitm.Drop
    else Mitm.Forward
  in
  let _ =
    run_mitm handler
      (fun c ->
        Chan.write_string c "secret";
        Fiber.yield ();
        Chan.write_string c "public";
        Fiber.yield ())
      (fun s -> seen := Bytes.to_string (Option.get (Chan.read_exact s 6)))
  in
  check Alcotest.string "dropped chunk never arrived" "public" !seen

let test_mitm_captures_both_directions () =
  let mitm =
    run_mitm
      (fun _ _ -> Mitm.Forward)
      (fun c ->
        Chan.write_string c "question";
        ignore (Chan.read_exact c 6))
      (fun s ->
        ignore (Chan.read_exact s 8);
        Chan.write_string s "answer")
  in
  check Alcotest.string "c2s" "question" (Mitm.captured mitm Mitm.Client_to_server);
  check Alcotest.string "s2c" "answer" (Mitm.captured mitm Mitm.Server_to_client)

(* ---------- vectored kernel-copy (readv) properties ----------

   Differential properties against the scalar path: a vectored read must
   scatter exactly the bytes the plain read calls would move, across
   page boundaries, through capacity watermarks, and a protection fault
   mid-vector must never tear a run or lose a byte.
   All draws come from the suite's seeded PRNG (WEDGE_TEST_SEED). *)

module Physmem = Wedge_kernel.Physmem
module Vm = Wedge_kernel.Vm
module Prot = Wedge_kernel.Prot

let mk_vm4 () =
  let pm = Physmem.create () in
  let vm = Vm.create ~pid:1 pm (Clock.create ()) Cost_model.free in
  Vm.map_fresh vm ~addr:0x1000 ~pages:4 ~prot:Prot.page_rw ~tag:None;
  vm

(* Runs as (length, preceding gap); laid out in order from [base] so the
   random gaps make runs straddle page boundaries at arbitrary offsets. *)
let iov_gen =
  QCheck.(list_of_size (Gen.int_range 1 8) (pair (int_range 0 50) (int_range 0 24)))

let layout ~base runs =
  let addr = ref base in
  Array.of_list
    (List.map
       (fun (len, gap) ->
         addr := !addr + gap;
         let a = !addr in
         addr := !addr + len;
         (a, len))
       runs)

let payload_of n = String.init n (fun i -> Char.chr (Char.code 'a' + (i mod 26)))

let drain_to_eof ep =
  let buf = Buffer.create 64 in
  let rec go () =
    let b = Chan.read ep 4096 in
    if Bytes.length b > 0 then begin
      Buffer.add_bytes buf b;
      go ()
    end
  in
  go ();
  Buffer.contents buf

let prop_readv_scatter_equivalence =
  Test_rng.to_alcotest
    (QCheck.Test.make ~name:"readv == scatter of plain reads" ~count:100
       QCheck.(pair (int_range 1 600) iov_gen)
       (fun (plen, runs) ->
         let payload = payload_of plen in
         let ok = ref false in
         Fiber.run (fun () ->
             let a, b = Chan.pair () in
             let vm = mk_vm4 () in
             Chan.write_string b payload;
             Chan.close b;
             let iovs = layout ~base:0x1000 runs in
             let want = Array.fold_left (fun acc (_, l) -> acc + l) 0 iovs in
             let n = Chan.readv a vm iovs in
             (* Exactly what the scalar path would deliver from a closed
                peer: min(buffered, want), filled in run order. *)
             let expected = min plen want in
             let delivered = Buffer.create 64 in
             let left = ref n in
             Array.iter
               (fun (addr, len) ->
                 let take = min len !left in
                 if take > 0 then
                   Buffer.add_bytes delivered (Vm.read_bytes vm addr take);
                 left := !left - take)
               iovs;
             let rest = drain_to_eof a in
             ok :=
               n = expected
               && Buffer.contents delivered = String.sub payload 0 expected
               && rest = String.sub payload expected (plen - expected));
         !ok))

let prop_readv_fault_mid_vector =
  Test_rng.to_alcotest
    (QCheck.Test.make
       ~name:"readv fault mid-vector: prior runs land, no byte lost" ~count:100
       QCheck.(triple iov_gen (int_range 1 50) (int_range 1 100))
       (fun (runs, bad_len, extra) ->
         (* Good runs stay inside the first two pages; the final run
            targets the read-only page at 0x3000.  The payload is long
            enough to reach it, so the vector must fault there — after
            the good runs were delivered and consumed, with the rest
            still buffered. *)
         let ok = ref false in
         Fiber.run (fun () ->
             let a, b = Chan.pair () in
             let vm = mk_vm4 () in
             Vm.protect_range vm ~addr:0x3000 ~pages:1 ~prot:Prot.page_r;
             let good = layout ~base:0x1000 runs in
             let good_want = Array.fold_left (fun acc (_, l) -> acc + l) 0 good in
             let iovs = Array.append good [| (0x3000, bad_len) |] in
             let plen = good_want + extra in
             let payload = payload_of plen in
             Chan.write_string b payload;
             Chan.close b;
             match Chan.readv a vm iovs with
             | _ -> ()
             | exception Vm.Fault f ->
                 let delivered = Buffer.create 64 in
                 Array.iter
                   (fun (addr, len) ->
                     if len > 0 then
                       Buffer.add_bytes delivered (Vm.read_bytes vm addr len))
                   good;
                 let rest = drain_to_eof a in
                 ok :=
                   Buffer.contents delivered = String.sub payload 0 good_want
                   && rest = String.sub payload good_want extra
                   && Wedge_core.Wedge.fault_reason (Vm.Fault f) <> None);
         !ok))

let prop_readv_partial_at_capacity_watermark =
  Test_rng.to_alcotest
    (QCheck.Test.make ~name:"readv through a capacity watermark loses nothing"
       ~count:60
       QCheck.(triple (int_range 8 64) (int_range 1 300) (int_range 1 8))
       (fun (cap, extra, step) ->
         let plen = cap + extra in
         let payload = payload_of plen in
         let ok = ref false in
         Fiber.run (fun () ->
             let a, b = Chan.pair ~capacity:cap () in
             let vm = mk_vm4 () in
             (* Dribble in [step]-byte writes so the writer actually hits
                the high watermark and blocks mid-payload. *)
             Fiber.spawn (fun () ->
                 let off = ref 0 in
                 while !off < plen do
                   let n = min step (plen - !off) in
                   Chan.write_string b (String.sub payload !off n);
                   off := !off + n
                 done;
                 Chan.close b);
             Fiber.wait_until ~what:"writer at watermark" (fun () ->
                 Chan.bytes_in_flight a >= cap);
             (* The writer is wedged at the watermark: the first vectored
                read sees a partial request, bounded by cap plus the
                final sub-watermark push. *)
             let iovs = [| (0x1000, plen) |] in
             let first = Chan.readv a vm iovs in
             let got = Buffer.create 64 in
             Buffer.add_bytes got (Vm.read_bytes vm 0x1000 first);
             let rec go () =
               let n = Chan.readv a vm iovs in
               if n > 0 then begin
                 Buffer.add_bytes got (Vm.read_bytes vm 0x1000 n);
                 go ()
               end
             in
             go ();
             ok := first > 0 && first < cap + step && Buffer.contents got = payload);
         !ok))

let () =
  Alcotest.run "wedge_net"
    [
      ( "chan",
        [
          Alcotest.test_case "partial reads" `Quick test_partial_reads;
          Alcotest.test_case "read_exact across writes" `Quick test_read_exact_across_writes;
          Alcotest.test_case "eof mid message" `Quick test_read_exact_eof_mid_message;
          Alcotest.test_case "write after close" `Quick test_write_after_close_rejected;
          Alcotest.test_case "rtt charging" `Quick test_blocking_read_charges_rtt;
          Alcotest.test_case "bytes in flight" `Quick test_bytes_in_flight;
          Alcotest.test_case "listener shutdown" `Quick test_listener_shutdown;
          Alcotest.test_case "listener queueing" `Quick test_listener_queueing;
        ] );
      ( "vectored",
        [
          prop_readv_scatter_equivalence;
          prop_readv_fault_mid_vector;
          prop_readv_partial_at_capacity_watermark;
        ] );
      ( "lineio",
        [
          Alcotest.test_case "line termination styles" `Quick test_lineio_lines;
          Alcotest.test_case "empty lines" `Quick test_lineio_empty_lines;
          Alcotest.test_case "eof right after cr" `Quick test_lineio_eof_cr_tail;
          Alcotest.test_case "lines + exact reads" `Quick test_lineio_read_exact_mixes_with_lines;
          Alcotest.test_case "write_line" `Quick test_lineio_write_line;
        ] );
      ( "mitm",
        [
          Alcotest.test_case "replace" `Quick test_mitm_replace;
          Alcotest.test_case "drop" `Quick test_mitm_drop;
          Alcotest.test_case "captures both directions" `Quick test_mitm_captures_both_directions;
        ] );
    ]
