(* ssh-upload: the Wedge-partitioned sshd (Fig. 6) on one kernel with a
   few closed-loop clients.  Each connection logs in by password (the
   authentication callgate changes the worker's uid and root), runs
   [exec "shell"], and uploads a seeded payload by scp; the file that
   lands in the VFS is compared byte for byte with the upload.  The only
   workload where bulk bytes flow client to server and end as writes. *)

open Harness
module Drbg = Wedge_crypto.Drbg
module Rsa = Wedge_crypto.Rsa
module Dsa = Wedge_crypto.Dsa
module Vfs = Wedge_kernel.Vfs
module Senv = Wedge_sshd.Sshd_env
module Sshd_wedge = Wedge_sshd.Sshd_wedge
module Ssh_client = Wedge_sshd.Ssh_client

let clients = 4
let conns = 1_000

(* Upload classes, all under the server's 1 MiB default quota: 90%
   4 KiB, 8% 64 KiB, 2% 256 KiB.  Twice the usual 1% of large ones: an
   upload dominates its connection's latency, so with exactly ten large
   uploads in a thousand the p99 rank would sit on the class boundary
   and jump between seeds. *)
let upload_bytes = [| 4_096; 65_536; 262_144 |]

type inputs = { size : int array; user : int array; payloads : string array; seed : int }

let inputs ~seed =
  {
    size = stratified ~seed ~n:conns [ 80; 20 ];
    user = stratified ~seed:(seed + 7919) ~n:conns [ 500 ];
    payloads = Array.mapi (fun i n -> seeded_string ~seed:((seed * 5) + i) n) upload_bytes;
    seed;
  }

let users = Array.of_list Senv.default_users

let run_conn inp tr k env listener ~sid:_ ~client ~conn ~span ~now =
  let u = users.(inp.user.(conn)) in
  let op name f = op tr ~name ~conn ~parent:span ~now f in
  let ep = Chan.connect listener in
  match
    op "app.ssh.login" (fun () ->
        Ssh_client.login
          ~rng:(Drbg.create ~seed:((inp.seed * 1_000_003) + conn))
          ~pinned_rsa:env.Senv.host_rsa.Rsa.pub ~pinned_dsa:env.Senv.host_dsa.Dsa.pub
          ~user:u.Senv.name (Ssh_client.Password u.Senv.password) ep)
  with
  | Error e -> Wrong ("login: " ^ e)
  | Ok c ->
      let shell = Ssh_client.exec c "shell" in
      let data = inp.payloads.(inp.size.(conn)) in
      let file = Printf.sprintf "up-%d.bin" client in
      let saved = op "app.ssh.upload" (fun () -> Ssh_client.scp_upload c ~path:file ~data) in
      Ssh_client.close c;
      let landed =
        Vfs.read_file k.Kernel.vfs ~root:("/home/" ^ u.Senv.name) ~uid:u.Senv.uid file
      in
      if shell <> Some (Printf.sprintf "Welcome, uid %d" u.Senv.uid) then
        Wrong "shell greeting"
      else if not saved then Wrong "scp not saved"
      else if landed <> Ok data then Wrong "uploaded file differs"
      else Good

let run inp tr =
  let r =
    single_kernel tr ~clients ~conns ~install:(fun k -> Senv.install k)
      ~app_of:(fun env -> env.Senv.app)
      ~serve:(fun env ep -> ignore (Sshd_wedge.serve_connection env ep))
      ~run_conn:(run_conn inp tr)
  in
  (* Every ssh connection runs a full key exchange: there is no resumption. *)
  { r with counts = ("full_handshakes", conns) :: r.counts }
