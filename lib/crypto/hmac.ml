let block = 64

let mac ~key ?(prefix = Bytes.empty) data =
  let key = if Bytes.length key > block then Sha256.digest key else key in
  let pad fill =
    let b = Bytes.make block fill in
    Bytes.iteri (fun i c -> Bytes.set b i (Char.chr (Char.code c lxor Char.code fill))) key;
    b
  in
  let ipad = pad '\x36' and opad = pad '\x5c' in
  let inner = Sha256.init () in
  Sha256.update inner ipad;
  Sha256.update inner prefix;
  Sha256.update inner data;
  let outer = Sha256.init () in
  Sha256.update outer opad;
  Sha256.update outer (Sha256.final inner);
  Sha256.final outer

let verify ~key ?prefix data ~tag =
  let expect = mac ~key ?prefix data in
  Bytes.length tag = Bytes.length expect
  &&
  let diff = ref 0 in
  Bytes.iteri (fun i c -> diff := !diff lor (Char.code c lxor Char.code (Bytes.get tag i))) expect;
  !diff = 0
