module Sha256 = Wedge_crypto.Sha256
module Hmac = Wedge_crypto.Hmac
module Rc4 = Wedge_crypto.Rc4

type keys = {
  mac_tx : bytes;
  mac_rx : bytes;
  enc_tx : Rc4.t;
  enc_rx : Rc4.t;
  mutable seq_tx : int;
  mutable seq_rx : int;
}

let tag_len = 32

let expand master cr sr label =
  let ctx = Sha256.init () in
  Sha256.update_string ctx label;
  Sha256.update ctx master;
  Sha256.update ctx cr;
  Sha256.update ctx sr;
  Sha256.final ctx

let derive ~master ~client_random ~server_random ~side =
  let mac_c2s = expand master client_random server_random "mac c2s" in
  let mac_s2c = expand master client_random server_random "mac s2c" in
  let key_c2s = expand master client_random server_random "key c2s" in
  let key_s2c = expand master client_random server_random "key s2c" in
  match side with
  | `Client ->
      {
        mac_tx = mac_c2s;
        mac_rx = mac_s2c;
        enc_tx = Rc4.create ~key:key_c2s;
        enc_rx = Rc4.create ~key:key_s2c;
        seq_tx = 0;
        seq_rx = 0;
      }
  | `Server ->
      {
        mac_tx = mac_s2c;
        mac_rx = mac_c2s;
        enc_tx = Rc4.create ~key:key_s2c;
        enc_rx = Rc4.create ~key:key_c2s;
        seq_tx = 0;
        seq_rx = 0;
      }

let seq_bytes seq =
  let b = Bytes.create 8 in
  for i = 0 to 7 do
    Bytes.set b i (Char.chr ((seq lsr (8 * (7 - i))) land 0xff))
  done;
  b

let seal k plaintext =
  let tag = Hmac.mac ~key:k.mac_tx ~prefix:(seq_bytes k.seq_tx) plaintext in
  k.seq_tx <- k.seq_tx + 1;
  Rc4.crypt k.enc_tx (Bytes.cat plaintext tag)

let open_ k record =
  if Bytes.length record < tag_len then None
  else begin
    (* Decrypt speculatively on a copy of the cipher state: a forged record
       must not desynchronise the stream cipher. *)
    let rc4 = Rc4.copy k.enc_rx in
    let pt_tag = Rc4.crypt rc4 record in
    let n = Bytes.length pt_tag - tag_len in
    let pt = Bytes.sub pt_tag 0 n in
    let tag = Bytes.sub pt_tag n tag_len in
    if Hmac.verify ~key:k.mac_rx ~prefix:(seq_bytes k.seq_rx) pt ~tag then begin
      k.seq_rx <- k.seq_rx + 1;
      (* Commit the verified copy's cipher state. *)
      Rc4.blit ~src:rc4 ~dst:k.enc_rx;
      Some pt
    end
    else None
  end

let state_size = 32 + 32 + Rc4.state_size + Rc4.state_size + 8 + 8

let to_bytes k =
  let b = Buffer.create state_size in
  Buffer.add_bytes b k.mac_tx;
  Buffer.add_bytes b k.mac_rx;
  Buffer.add_bytes b (Rc4.serialize k.enc_tx);
  Buffer.add_bytes b (Rc4.serialize k.enc_rx);
  Buffer.add_bytes b (seq_bytes k.seq_tx);
  Buffer.add_bytes b (seq_bytes k.seq_rx);
  Buffer.to_bytes b

let of_bytes b =
  if Bytes.length b <> state_size then invalid_arg "Record.of_bytes";
  let off = ref 0 in
  let take n =
    let s = Bytes.sub b !off n in
    off := !off + n;
    s
  in
  let mac_tx = take 32 in
  let mac_rx = take 32 in
  let enc_tx = Rc4.deserialize (take Rc4.state_size) in
  let enc_rx = Rc4.deserialize (take Rc4.state_size) in
  let seq_of s = Bytes.fold_left (fun acc c -> (acc lsl 8) lor Char.code c) 0 s in
  let seq_tx = seq_of (take 8) in
  let seq_rx = seq_of (take 8) in
  { mac_tx; mac_rx; enc_tx; enc_rx; seq_tx; seq_rx }

