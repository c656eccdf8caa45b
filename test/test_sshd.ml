(* OpenSSH stand-in tests: the three authentication methods across the
   monolithic / privilege-separated / Wedge-partitioned servers, S/Key
   chain behaviour, scp, authentication bypass resistance, and the two
   lessons of §5.2 — the username-probing leak of classic privilege
   separation (fixed by the dummy-passwd callgate) and the PAM
   scratch-memory leak (fixed by callgate-private heaps). *)

module Kernel = Wedge_kernel.Kernel
module Cost_model = Wedge_sim.Cost_model
module Layout = Wedge_kernel.Layout
module Fiber = Wedge_sim.Fiber
module Chan = Wedge_net.Chan
module Attacker = Wedge_net.Attacker
module Drbg = Wedge_crypto.Drbg
module Rsa = Wedge_crypto.Rsa
module W = Wedge_core.Wedge
module Env = Wedge_sshd.Sshd_env
module Mono = Wedge_sshd.Sshd_mono
module Privsep = Wedge_sshd.Sshd_privsep
module Wedge_d = Wedge_sshd.Sshd_wedge
module Client = Wedge_sshd.Ssh_client
module Skey = Wedge_sshd.Skey
module Pam = Wedge_sshd.Pam

let check = Alcotest.check

let mk_env () =
  let k = Kernel.create ~costs:Cost_model.free () in
  Env.install ~image_pages:80 k

type variant = VMono | VPrivsep | VWedge

let vname = function VMono -> "mono" | VPrivsep -> "privsep" | VWedge -> "wedge"

let with_conn ?exploit_w ?exploit_p env variant f =
  let result = ref None in
  Fiber.run (fun () ->
      let client_ep, server_ep = Chan.pair ~costs:Cost_model.free () in
      Fiber.spawn (fun () ->
          match variant with
          | VMono -> Mono.serve_connection ?exploit:exploit_w env server_ep
          | VPrivsep -> Privsep.serve_connection ?exploit:exploit_p env server_ep
          | VWedge -> ignore (Wedge_d.serve_connection ?exploit:exploit_w env server_ep));
      let rng = Drbg.create ~seed:0xC0 in
      match
        Client.start ~rng ~pinned_rsa:env.Env.host_rsa.Rsa.pub
          ~pinned_dsa:env.Env.host_dsa.Wedge_crypto.Dsa.pub client_ep
      with
      | Error e -> Alcotest.fail ("kex failed: " ^ e)
      | Ok conn ->
          result := Some (f conn);
          Client.close conn);
  Option.get !result

(* ---------- functional ---------- *)

let test_password_login variant () =
  let env = mk_env () in
  let ok =
    with_conn env variant (fun c -> Client.authenticate c ~user:"alice" (Client.Password "wonderland"))
  in
  check Alcotest.bool (vname variant ^ " password login") true ok

let test_wrong_password variant () =
  let env = mk_env () in
  let ok =
    with_conn env variant (fun c -> Client.authenticate c ~user:"alice" (Client.Password "nope"))
  in
  check Alcotest.bool "rejected" false ok

let test_pubkey_login variant () =
  let env = mk_env () in
  let alice = List.hd env.Env.users in
  let ok =
    with_conn env variant (fun c ->
        Client.authenticate c ~user:"alice" (Client.Pubkey (Env.user_key alice)))
  in
  check Alcotest.bool (vname variant ^ " pubkey login") true ok

let test_pubkey_wrong_key variant () =
  let env = mk_env () in
  let bob = List.nth env.Env.users 1 in
  (* bob's key is not in alice's authorized_keys *)
  let ok =
    with_conn env variant (fun c ->
        Client.authenticate c ~user:"alice" (Client.Pubkey (Env.user_key bob)))
  in
  check Alcotest.bool "rejected" false ok

let test_skey_login variant () =
  let env = mk_env () in
  let ok =
    with_conn env variant (fun c ->
        Client.authenticate c ~user:"alice" (Client.Skey "rabbit hole"))
  in
  check Alcotest.bool (vname variant ^ " skey login") true ok

let test_skey_chain_advances variant () =
  let env = mk_env () in
  (* Two consecutive S/Key logins must use decreasing sequence numbers and
     a replayed response must fail. *)
  let seq1 =
    with_conn env variant (fun c ->
        let chal = Client.skey_challenge_for c ~user:"alice" in
        (match chal with
        | Some (seq, seed) ->
            ignore (Client.skey_answer c ~response:(Skey.respond ~passphrase:"rabbit hole" ~seed ~seq))
        | None -> ());
        chal)
  in
  let seq2 = with_conn env variant (fun c -> Client.skey_challenge_for c ~user:"alice") in
  match (seq1, seq2) with
  | Some (s1, _), Some (s2, _) ->
      check Alcotest.int "sequence decreased" (s1 - 1) s2;
      (* Replaying the old response fails now. *)
      let replay_ok =
        with_conn env variant (fun c ->
            match Client.skey_challenge_for c ~user:"alice" with
            | Some (_, seed) ->
                Client.skey_answer c
                  ~response:(Skey.respond ~passphrase:"rabbit hole" ~seed ~seq:s1)
            | None -> false)
      in
      check Alcotest.bool "replay rejected" false replay_ok
  | _ -> Alcotest.fail "no challenges"

let test_exec_requires_auth variant () =
  let env = mk_env () in
  let reply = with_conn env variant (fun c -> Client.exec c "shell") in
  check (Alcotest.option Alcotest.string) "denied pre-auth" (Some "permission denied") reply

let test_scp_upload () =
  let env = mk_env () in
  let data = String.init 4096 (fun i -> Char.chr (i land 0xff)) in
  let ok =
    with_conn env VWedge (fun c ->
        if Client.authenticate c ~user:"alice" (Client.Password "wonderland") then
          Client.scp_upload c ~path:"upload.bin" ~data
        else false)
  in
  check Alcotest.bool "scp saved" true ok;
  (* The worker's root became /home/alice after authentication. *)
  let k = W.kernel env.Env.app in
  match Wedge_kernel.Vfs.read_file k.Kernel.vfs ~root:"/" ~uid:0 "/home/alice/upload.bin" with
  | Ok saved -> check Alcotest.bool "content intact" true (String.equal saved data)
  | Error _ -> Alcotest.fail "upload not found under alice's home"

(* The scp cap is the env's: every layout refuses an upload one byte
   over the default 1 MiB, and saves it once the env allows more. *)
let test_upload_cap variant () =
  let upload ?max_upload_bytes () =
    let k = Kernel.create ~costs:Cost_model.free () in
    let env = Env.install ~image_pages:80 ?max_upload_bytes k in
    let data = String.make ((1 lsl 20) + 1) 'u' in
    let reply =
      with_conn env variant (fun c ->
          if Client.authenticate c ~user:"alice" (Client.Password "wonderland") then
            Client.scp c ~path:"big.bin" ~data
          else None)
    in
    (* The monolithic server never leaves "/"; the wedge worker's root
       became alice's home at authentication. *)
    let home = match variant with VMono -> "" | VPrivsep | VWedge -> "/home/alice" in
    let saved = Wedge_kernel.Vfs.read_file k.Kernel.vfs ~root:"/" ~uid:0 (home ^ "/big.bin") in
    (reply, Result.map String.length saved)
  in
  let reply, saved = upload () in
  check (Alcotest.option Alcotest.string) "default cap refuses" (Some "upload too large") reply;
  check Alcotest.bool "nothing saved" true (Result.is_error saved);
  let reply, saved = upload ~max_upload_bytes:(2 lsl 20) () in
  check (Alcotest.option Alcotest.string) "raised cap saves" (Some "saved") reply;
  check Alcotest.bool "all bytes saved" true (saved = Ok ((1 lsl 20) + 1))

let test_shell_runs_as_user () =
  let env = mk_env () in
  let reply =
    with_conn env VWedge (fun c ->
        if Client.authenticate c ~user:"alice" (Client.Password "wonderland") then
          Client.exec c "shell"
        else None)
  in
  check (Alcotest.option Alcotest.string) "uid escalated to alice" (Some "Welcome, uid 1000") reply

(* ---------- S/Key unit behaviour ---------- *)

let test_skey_chain_math () =
  let stored = Skey.chain ~passphrase:"pp" ~seed:"sd" ~count:10 in
  let resp = Skey.respond ~passphrase:"pp" ~seed:"sd" ~seq:9 in
  check Alcotest.string "H(resp) = stored" stored (Skey.hash_hex resp);
  let e = { Skey.user = "u"; seq = 10; seed = "sd"; stored } in
  (match Skey.verify e ~response:resp with
  | Some e' ->
      check Alcotest.int "seq decrements" 9 e'.Skey.seq;
      check Alcotest.string "stored replaced" resp e'.Skey.stored
  | None -> Alcotest.fail "verify failed");
  check Alcotest.bool "wrong response rejected" true (Skey.verify e ~response:"bad" = None);
  check Alcotest.bool "line roundtrip" true
    (Skey.entry_of_line (Skey.entry_to_line e) = Some e)

(* ---------- attacks ---------- *)

let test_mono_exploit_gets_hostkey_and_shadow () =
  let env = mk_env () in
  let loot = Attacker.loot_create () in
  ignore
    (with_conn env VMono
       ~exploit_w:(fun ctx ->
         (match Attacker.try_read ctx ~addr:env.Env.rsa_addr ~len:32 with
         | Ok d -> Attacker.grab loot ~label:"hostkey" d
         | Error _ -> ());
         match W.vfs_read ctx Env.shadow_path with
         | Ok d -> Attacker.grab loot ~label:"shadow" d
         | Error _ -> ())
       (fun c -> Client.exec c "xploit"));
  check Alcotest.bool "hostkey read" true (Attacker.stolen loot ~label:"hostkey" <> None);
  check Alcotest.bool "shadow read" true (Attacker.stolen loot ~label:"shadow" <> None)

let test_wedge_exploit_contained () =
  let env = mk_env () in
  let loot = Attacker.loot_create () in
  ignore
    (with_conn env VWedge
       ~exploit_w:(fun ctx ->
         (match Attacker.try_read ctx ~addr:env.Env.rsa_addr ~len:32 with
         | Ok d -> Attacker.grab loot ~label:"hostkey" d
         | Error _ -> ());
         (match W.vfs_read ctx Env.shadow_path with
         | Ok d -> Attacker.grab loot ~label:"shadow" d
         | Error _ -> ());
         match W.vfs_read ctx Env.skey_path with
         | Ok d -> Attacker.grab loot ~label:"skey" d
         | Error _ -> ())
       (fun c -> Client.exec c "xploit"));
  check Alcotest.int "nothing reachable" 0 (Attacker.count loot)

let test_wedge_exploit_cannot_selfpromote () =
  (* The worker cannot change its own uid: only the auth gates can, and
     only on success. *)
  let env = mk_env () in
  let outcome = ref `Untried in
  let debug = ref None in
  Fiber.run (fun () ->
      let client_ep, server_ep = Chan.pair ~costs:Cost_model.free () in
      Fiber.spawn (fun () ->
          debug :=
            Some
              (Wedge_d.serve_connection
                 ~exploit:(fun ctx ->
                   match W.set_identity ctx ~target_pid:(W.pid ctx) ~uid:0 () with
                   | () -> outcome := `Promoted
                   | exception W.Privilege_violation _ -> outcome := `Denied
                   | exception Kernel.Eperm _ -> outcome := `Denied)
                 env server_ep));
      let rng = Drbg.create ~seed:0xC1 in
      (match
         Client.start ~rng ~pinned_rsa:env.Env.host_rsa.Rsa.pub
           ~pinned_dsa:env.Env.host_dsa.Wedge_crypto.Dsa.pub client_ep
       with
      | Ok conn ->
          ignore (Client.exec conn "xploit");
          (* still unauthenticated afterwards *)
          let reply = Client.exec conn "shell" in
          check (Alcotest.option Alcotest.string) "still locked out"
            (Some "permission denied") reply;
          Client.close conn
      | Error e -> Alcotest.fail e));
  check Alcotest.bool "self-promotion denied" true (!outcome = `Denied);
  match !debug with
  | Some d -> check Alcotest.int "worker ended unprivileged" 99 d.Wedge_d.final_uid
  | None -> Alcotest.fail "no debug"

(* ---------- lesson 1: username probing ---------- *)

let test_privsep_username_oracle () =
  (* An exploited privsep slave asks the monitor's getpwnam at will: the
     NULL / non-NULL distinction reveals which usernames exist (portable
     OpenSSH 4.7 behaviour). *)
  let env = mk_env () in
  let verdicts = ref [] in
  ignore
    (with_conn env VPrivsep
       ~exploit_p:(fun _ctx monitor ->
         verdicts :=
           List.map
             (fun u -> (u, monitor.Privsep.m_getpw u <> None))
             [ "alice"; "bob"; "mallory"; "eve" ])
       (fun c -> Client.exec c "xploit"));
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.bool))
    "existence leaked"
    [ ("alice", true); ("bob", true); ("mallory", false); ("eve", false) ]
    !verdicts

let test_privsep_skey_leak_without_exploit () =
  (* The S/Key variant leaks over the network, no exploit needed: unknown
     users get no challenge. *)
  let env = mk_env () in
  let known, unknown =
    with_conn env VPrivsep (fun c ->
        ( Client.skey_challenge_for c ~user:"alice" <> None,
          Client.skey_challenge_for c ~user:"mallory" <> None ))
  in
  check Alcotest.bool "known user gets challenge" true known;
  check Alcotest.bool "unknown user refused (the leak)" false unknown

let test_wedge_no_username_oracle () =
  (* The Wedge gates answer identically for unknown users: the password
     gate returns the same failure, the S/Key gate issues a dummy
     challenge. *)
  let env = mk_env () in
  let wrong_pw, unknown_pw, known_chal, unknown_chal, unknown_chal2 =
    with_conn env VWedge (fun c ->
        ( Client.authenticate c ~user:"alice" (Client.Password "bad"),
          Client.authenticate c ~user:"mallory" (Client.Password "bad"),
          Client.skey_challenge_for c ~user:"alice" <> None,
          Client.skey_challenge_for c ~user:"mallory",
          Client.skey_challenge_for c ~user:"mallory" ))
  in
  check Alcotest.bool "wrong password: same verdict" true (wrong_pw = unknown_pw);
  check Alcotest.bool "known user: challenge" true known_chal;
  check Alcotest.bool "unknown user: dummy challenge too" true (unknown_chal <> None);
  check Alcotest.bool "dummy challenge is stable across probes" true
    (unknown_chal = unknown_chal2)

(* ---------- lesson 2: PAM scratch memory ---------- *)

let heap_hunt ctx needle =
  (* Scan the (inherited) heap for a cleartext password remnant. *)
  let found = ref false in
  for page = 0 to Layout.heap_pages - 1 do
    let addr = Layout.heap_base + (page * 4096) in
    match Attacker.try_read ctx ~addr ~len:4096 with
    | Ok data ->
        let nl = String.length needle and hl = String.length data in
        let rec go i = i + nl <= hl && (String.sub data i nl = needle || go (i + 1)) in
        if go 0 then found := true
    | Error _ -> ()
  done;
  !found

let test_privsep_pam_scratch_inherited () =
  let env = mk_env () in
  (* Connection 1: alice authenticates; PAM scratch lands in the monitor's
     heap. *)
  ignore
    (with_conn env VPrivsep (fun c ->
         Client.authenticate c ~user:"alice" (Client.Password "wonderland")));
  (* Connection 2: the slave forked for it inherits that heap; an exploit
     finds alice's cleartext password. *)
  let stolen = ref false in
  ignore
    (with_conn env VPrivsep
       ~exploit_p:(fun ctx _monitor -> stolen := heap_hunt ctx "wonderland")
       (fun c -> Client.exec c "xploit"));
  check Alcotest.bool "previous user's password recovered from heap" true !stolen

let test_wedge_pam_scratch_unreachable () =
  let env = mk_env () in
  ignore
    (with_conn env VWedge (fun c ->
         Client.authenticate c ~user:"alice" (Client.Password "wonderland")));
  let stolen = ref false in
  ignore
    (with_conn env VWedge
       ~exploit_w:(fun ctx -> stolen := heap_hunt ctx "wonderland")
       (fun c -> Client.exec c "xploit"));
  check Alcotest.bool "no password remnant reachable" false !stolen

(* ---------- property tests ---------- *)

let prop_skey_chain_walk =
  QCheck.Test.make ~name:"skey chain verifies all the way down" ~count:25
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 1 20)) (int_range 3 12))
    (fun (passphrase, n) ->
      let seed = "sd" in
      let e0 =
        { Skey.user = "u"; seq = n; seed; stored = Skey.chain ~passphrase ~seed ~count:n }
      in
      let rec walk e =
        if Skey.exhausted e then true
        else
          let seq, seed = Skey.challenge e in
          let resp = Skey.respond ~passphrase ~seed ~seq in
          (* the correct response verifies, a corrupted one does not *)
          Skey.verify e ~response:(resp ^ "x") = None
          &&
          match Skey.verify e ~response:resp with
          | Some e' -> e'.Skey.seq = e.Skey.seq - 1 && walk e'
          | None -> false
      in
      walk e0)

let msg_gen =
  let open QCheck.Gen in
  let str = string_size ~gen:(char_range 'a' 'z') (int_range 0 40) in
  let bts = map Bytes.of_string str in
  oneof
    [
      map (fun s -> Wedge_sshd.Ssh_proto.Version s) str;
      map (fun b -> Wedge_sshd.Ssh_proto.Kexinit b) bts;
      map2 (fun u p -> Wedge_sshd.Ssh_proto.Auth_password { user = u; password = p }) str str;
      map (fun u -> Wedge_sshd.Ssh_proto.Skey_start { user = u }) str;
      map2 (fun seq seed -> Wedge_sshd.Ssh_proto.Skey_challenge { seq; seed }) (int_range 0 999) str;
      map (fun r -> Wedge_sshd.Ssh_proto.Skey_response { response = r }) str;
      map (fun ok -> Wedge_sshd.Ssh_proto.Auth_result ok) bool;
      map (fun c -> Wedge_sshd.Ssh_proto.Exec c) str;
      map (fun b -> Wedge_sshd.Ssh_proto.Data b) bts;
      return Wedge_sshd.Ssh_proto.Eof;
      return Wedge_sshd.Ssh_proto.Disconnect;
    ]

let prop_proto_roundtrip =
  QCheck.Test.make ~name:"wssh messages roundtrip through marshalling" ~count:200
    (QCheck.make msg_gen)
    (fun msg ->
      Wedge_sshd.Ssh_proto.unmarshal (Wedge_sshd.Ssh_proto.marshal msg) = Some msg)

let qcheck tests = List.map Test_rng.to_alcotest tests

let both name f = [ Alcotest.test_case (name ^ " (mono)") `Quick (f VMono);
                    Alcotest.test_case (name ^ " (privsep)") `Quick (f VPrivsep);
                    Alcotest.test_case (name ^ " (wedge)") `Quick (f VWedge) ]

let () =
  Alcotest.run "wedge_sshd"
    [
      ( "functional",
        both "password login" test_password_login
        @ both "wrong password" test_wrong_password
        @ both "pubkey login" test_pubkey_login
        @ both "pubkey wrong key" test_pubkey_wrong_key
        @ both "skey login" test_skey_login
        @ [
            Alcotest.test_case "skey chain advances (wedge)" `Quick
              (test_skey_chain_advances VWedge);
            Alcotest.test_case "skey chain advances (mono)" `Quick
              (test_skey_chain_advances VMono);
          ]
        @ both "exec requires auth" test_exec_requires_auth
        @ [
            Alcotest.test_case "scp upload" `Quick test_scp_upload;
            Alcotest.test_case "upload cap (mono)" `Quick (test_upload_cap VMono);
            Alcotest.test_case "upload cap (wedge)" `Quick (test_upload_cap VWedge);
            Alcotest.test_case "shell as user" `Quick test_shell_runs_as_user;
            Alcotest.test_case "skey chain math" `Quick test_skey_chain_math;
          ] );
      ( "attacks",
        [
          Alcotest.test_case "mono exploit gets everything" `Quick
            test_mono_exploit_gets_hostkey_and_shadow;
          Alcotest.test_case "wedge exploit contained" `Quick test_wedge_exploit_contained;
          Alcotest.test_case "no self-promotion" `Quick test_wedge_exploit_cannot_selfpromote;
        ] );
      ("properties", qcheck [ prop_skey_chain_walk; prop_proto_roundtrip ]);
      ( "lessons",
        [
          Alcotest.test_case "privsep username oracle" `Quick test_privsep_username_oracle;
          Alcotest.test_case "privsep skey leak (no exploit)" `Quick
            test_privsep_skey_leak_without_exploit;
          Alcotest.test_case "wedge: no username oracle" `Quick test_wedge_no_username_oracle;
          Alcotest.test_case "privsep PAM scratch inherited" `Quick
            test_privsep_pam_scratch_inherited;
          Alcotest.test_case "wedge PAM scratch unreachable" `Quick
            test_wedge_pam_scratch_unreachable;
        ] );
    ]
