module Chan = Wedge_net.Chan
module Drbg = Wedge_crypto.Drbg
module Rsa = Wedge_crypto.Rsa
module Dsa = Wedge_crypto.Dsa
module Wire = Wedge_tls.Wire
module P = Ssh_proto

type conn = {
  io : Wire.io;
  ep : Chan.ep;
  keys : Wedge_tls.Record.keys;
  fp : string;
  rng : Drbg.t;
}

type auth =
  | Password of string
  | Pubkey of Dsa.priv
  | Skey of string

let io_of_ep ep =
  Wire.io_of_fns
    ~recv:(fun n ->
      let b = Chan.read ep n in
      if Bytes.length b = 0 then None else Some b)
    ~send:(fun b -> Chan.write ep b)

let start ~rng ~pinned_rsa ~pinned_dsa ep =
  let io = io_of_ep ep in
  try
    (match P.recv_plain io with P.Version _ -> () | _ -> failwith "expected version");
    P.send_plain io (P.Version "WSSH-1.0-client");
    let client_nonce = Drbg.bytes rng 32 in
    P.send_plain io (P.Kexinit client_nonce);
    match P.recv_plain io with
    | P.Kexreply { host_rsa; host_dsa; server_nonce; signature } ->
        if host_rsa <> Rsa.pub_to_string pinned_rsa then Error "unexpected RSA host key (MITM?)"
        else if host_dsa <> Dsa.pub_to_string pinned_dsa then
          Error "unexpected DSA host key (MITM?)"
        else begin
          let binding = P.kex_binding ~client_nonce ~server_nonce ~host_rsa ~host_dsa in
          match Dsa.signature_of_string signature with
          | None -> Error "garbled host signature"
          | Some s ->
              if not (Dsa.verify pinned_dsa binding ~signature:s) then
                Error "host signature verification failed"
              else begin
                let secret = Drbg.bytes rng 32 in
                let ct = Rsa.encrypt rng pinned_rsa secret in
                P.send_plain io (P.Kexsecret ct);
                let keys = P.derive_keys ~secret ~client_nonce ~server_nonce ~side:`Client in
                let fp = P.session_fingerprint ~secret ~client_nonce ~server_nonce in
                Ok { io; ep; keys; fp; rng }
              end
        end
    | _ -> Error "expected kexreply"
  with
  | Wire.Closed -> Error "connection closed"
  | Failure m -> Error m

let rpc conn msg =
  P.send_sealed conn.io conn.keys msg;
  P.recv_sealed conn.io conn.keys

let auth_result = function Ok (P.Auth_result ok) -> ok | _ -> false

let skey_challenge_for conn ~user =
  match rpc conn (P.Skey_start { user }) with
  | Ok (P.Skey_challenge { seq; seed }) -> Some (seq, seed)
  | _ -> None

let skey_answer conn ~response = auth_result (rpc conn (P.Skey_response { response }))

let authenticate conn ~user auth =
  match auth with
  | Password password -> auth_result (rpc conn (P.Auth_password { user; password }))
  | Pubkey key ->
      let binding = P.auth_proof_binding ~session_fp:conn.fp ~user in
      let signature = Dsa.sign conn.rng key binding in
      auth_result
        (rpc conn
           (P.Auth_pubkey
              {
                user;
                pub = Dsa.pub_to_string key.Dsa.pub;
                proof = Dsa.signature_to_string signature;
              }))
  | Skey passphrase -> (
      match skey_challenge_for conn ~user with
      | None -> false
      | Some (seq, seed) ->
          skey_answer conn ~response:(Skey.respond ~passphrase ~seed ~seq))

let exec conn cmd =
  match rpc conn (P.Exec cmd) with
  | Ok (P.Data d) -> Some (Bytes.to_string d)
  | _ -> None

let scp conn ~path ~data =
  match exec conn (Printf.sprintf "scp %s %d" path (String.length data)) with
  | Some "ready" -> (
      let chunk = 32768 in
      let n = String.length data in
      let rec push off =
        if off < n then begin
          let len = min chunk (n - off) in
          P.send_sealed conn.io conn.keys (P.Data (Bytes.of_string (String.sub data off len)));
          push (off + len)
        end
      in
      push 0;
      match rpc conn P.Eof with Ok (P.Data d) -> Some (Bytes.to_string d) | _ -> None)
  | reply -> reply

let scp_upload conn ~path ~data = scp conn ~path ~data = Some "saved"

let close conn =
  (try P.send_sealed conn.io conn.keys P.Disconnect with _ -> ());
  Chan.close conn.ep

let login ~rng ~pinned_rsa ~pinned_dsa ~user auth ep =
  match start ~rng ~pinned_rsa ~pinned_dsa ep with
  | Error e -> Error e
  | Ok conn -> if authenticate conn ~user auth then Ok conn else Error "authentication failed"
