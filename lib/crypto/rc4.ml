type t = {
  s : int array;  (* 256-entry permutation *)
  mutable i : int;
  mutable j : int;
}

let create ~key =
  if Bytes.length key = 0 then invalid_arg "Rc4.create: empty key";
  let s = Array.init 256 (fun i -> i) in
  let j = ref 0 in
  for i = 0 to 255 do
    j := (!j + s.(i) + Char.code (Bytes.get key (i mod Bytes.length key))) land 0xff;
    let tmp = s.(i) in
    s.(i) <- s.(!j);
    s.(!j) <- tmp
  done;
  { s; i = 0; j = 0 }

(* Indices are masked to 0..255, so the 256-entry table needs no bounds
   checks. *)
let crypt t data =
  let out = Bytes.create (Bytes.length data) in
  let s = t.s and i = ref t.i and j = ref t.j in
  for n = 0 to Bytes.length data - 1 do
    i := (!i + 1) land 0xff;
    let si = Array.unsafe_get s !i in
    j := (!j + si) land 0xff;
    let sj = Array.unsafe_get s !j in
    Array.unsafe_set s !i sj;
    Array.unsafe_set s !j si;
    let ks = Array.unsafe_get s ((si + sj) land 0xff) in
    Bytes.unsafe_set out n (Char.unsafe_chr (Char.code (Bytes.unsafe_get data n) lxor ks))
  done;
  t.i <- !i;
  t.j <- !j;
  out

let copy t = { s = Array.copy t.s; i = t.i; j = t.j }

let blit ~src ~dst =
  Array.blit src.s 0 dst.s 0 256;
  dst.i <- src.i;
  dst.j <- src.j

let state_size = 258

let serialize t =
  let b = Bytes.create state_size in
  Array.iteri (fun idx v -> Bytes.set b idx (Char.chr v)) t.s;
  Bytes.set b 256 (Char.chr t.i);
  Bytes.set b 257 (Char.chr t.j);
  b

let deserialize b =
  if Bytes.length b <> state_size then invalid_arg "Rc4.deserialize";
  {
    s = Array.init 256 (fun i -> Char.code (Bytes.get b i));
    i = Char.code (Bytes.get b 256);
    j = Char.code (Bytes.get b 257);
  }
