(* https-mixed: the Table 2 "Recycled" server — the man-in-the-middle
   Apache/OpenSSL partitioning (Figs. 3-5) with recycled callgates — on
   one kernel, 16 closed-loop clients, behind a benchmark-owned accept
   loop on a reactor-attached listener.  The seeded mix crosses full RSA
   handshakes with session resumptions, and small, medium and large
   pages installed in the docroot, so RSA, TLS records, the recycled
   callgates and the session/tag caches carry the cost and the tail is
   real.  With one shard, [Shard] and [Guard] do nothing here. *)

open Harness
module Drbg = Wedge_crypto.Drbg
module Rsa = Wedge_crypto.Rsa
module Vfs = Wedge_kernel.Vfs
module Henv = Wedge_httpd.Httpd_env
module Mitm = Wedge_httpd.Httpd_mitm
module Client = Wedge_httpd.Https_client
module Http = Wedge_httpd.Http

let clients = 16
let conns = 1_000

(* Page classes: 90% small, 9% medium, 1% large. *)
let page_bytes = [| 512; 4_096; 16_384 |]

(* Handshake classes: 0 resumes the client's last session, 1 is a full
   RSA handshake (25%).  A client with no session yet does a full one. *)
type inputs = { page : int array; full : int array; bodies : string array; seed : int }

let inputs ~seed =
  {
    page = stratified ~seed ~n:conns [ 90; 10 ];
    full = stratified ~seed:(seed + 7919) ~n:conns [ 250 ];
    bodies = Array.mapi (fun i n -> seeded_string ~seed:((seed * 3) + i) n) page_bytes;
    seed;
  }

let path i = Printf.sprintf "/page-%d.html" i

let run_conn inp sessions full tr _k env listener ~sid:_ ~client ~conn ~span ~now =
  let resume = if inp.full.(conn) = 1 then None else sessions.(client) in
  let name = if resume = None then "app.https.full" else "app.https.resumed" in
  let ep = Chan.connect listener in
  let r =
    op tr ~name ~conn ~parent:span ~now (fun () ->
        Client.get ?resume
          ~rng:(Drbg.create ~seed:((inp.seed * 1_000_003) + conn))
          ~pinned:env.Henv.priv.Rsa.pub ~path:(path inp.page.(conn)) ep)
  in
  if r.Client.session <> None then sessions.(client) <- r.Client.session;
  if not r.Client.resumed then incr full;
  match r.Client.response with
  | _ when resume = None && r.Client.resumed -> Wrong "resumed without a session offered"
  | Some { Http.status = 200; body; _ } when body = inp.bodies.(inp.page.(conn)) -> Good
  | Some { Http.status; _ } -> Wrong (Printf.sprintf "status %d or body mismatch" status)
  | None -> Wrong (Option.value ~default:"no response" r.Client.error)

let run inp tr =
  let sessions = Array.make clients None and full = ref 0 in
  let r =
    single_kernel tr ~clients ~conns
      ~install:(fun k ->
        let env = Henv.install k in
        Array.iteri
          (fun i body -> Vfs.install k.Kernel.vfs ~mode:0o644 (Henv.docroot ^ path i) body)
          inp.bodies;
        env)
      ~app_of:(fun env -> env.Henv.app)
      ~serve:(fun env ep -> ignore (Mitm.serve_connection ~recycled:true env ep))
      ~run_conn:(run_conn inp sessions full tr)
  in
  { r with counts = ("full_handshakes", !full) :: r.counts }
