(* Plain-int implementation; all word arithmetic is masked to 32 bits. *)

let m32 = 0xffffffff

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1; 0x923f82a4; 0xab1c5ed5;
    0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174;
    0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967;
    0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
    0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
    0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208; 0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

type ctx = {
  h : int array;
  block : bytes;  (* pending partial block *)
  mutable fill : int;  (* bytes pending in [block] *)
  w : int array;  (* message schedule, reused by every block *)
  mutable total : int;  (* bytes processed *)
}

let init () =
  {
    h = [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    block = Bytes.create 64;
    fill = 0;
    w = Array.make 64 0;
    total = 0;
  }

(* For x < 2^32, the 63-bit int [x lor (x lsl 32)] holds x twice (less its
   top bit in the upper copy), so for n <= 30, [(xx lsr n) land m32] is x
   rotated right by n.  Every rotation below is at most 25. *)
let[@inline] twice x = x lor (x lsl 32)

(* The two sums of a round: t1 goes into the new e and a, t2 into a. *)
let[@inline] t1 w i e f g h =
  let ee = twice e in
  h
  + (((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land m32)
  + (g lxor (e land (f lxor g)))
  + Array.unsafe_get k i + Array.unsafe_get w i

let[@inline] t2 a b c =
  let aa = twice a in
  (((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land m32) + ((a land b) lor (c land (a lor b)))

(* One 64-byte block of [src] at [off], read in place; [k] and [w] are
   indexed below 64, their length.  The rounds run eight at a time, each
   writing its new a and e into the variables that fall out of use, so the
   working variables need no shuffling. *)
let compress t (src : bytes) off =
  let h = t.h and w = t.w in
  for i = 0 to 15 do
    w.(i) <- Int32.to_int (Bytes.get_int32_be src (off + (4 * i))) land m32
  done;
  for i = 16 to 63 do
    let x = Array.unsafe_get w (i - 15) and y = Array.unsafe_get w (i - 2) in
    let xx = twice x and yy = twice y in
    let s0 = ((xx lsr 7) lxor (xx lsr 18)) land m32 lxor (x lsr 3) in
    let s1 = ((yy lsr 17) lxor (yy lsr 19)) land m32 lxor (y lsr 10) in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1) land m32)
  done;
  let ra = ref h.(0) and rb = ref h.(1) and rc = ref h.(2) and rd = ref h.(3) in
  let re = ref h.(4) and rf = ref h.(5) and rg = ref h.(6) and rh = ref h.(7) in
  for j = 0 to 7 do
    let i = 8 * j in
    let a = !ra and b = !rb and c = !rc and d = !rd in
    let e = !re and f = !rf and g = !rg and hh = !rh in
    let x = t1 w i e f g hh in
    let d = (d + x) land m32 and hh = (x + t2 a b c) land m32 in
    let x = t1 w (i + 1) d e f g in
    let c = (c + x) land m32 and g = (x + t2 hh a b) land m32 in
    let x = t1 w (i + 2) c d e f in
    let b = (b + x) land m32 and f = (x + t2 g hh a) land m32 in
    let x = t1 w (i + 3) b c d e in
    let a = (a + x) land m32 and e = (x + t2 f g hh) land m32 in
    let x = t1 w (i + 4) a b c d in
    let hh = (hh + x) land m32 and d = (x + t2 e f g) land m32 in
    let x = t1 w (i + 5) hh a b c in
    let g = (g + x) land m32 and c = (x + t2 d e f) land m32 in
    let x = t1 w (i + 6) g hh a b in
    let f = (f + x) land m32 and b = (x + t2 c d e) land m32 in
    let x = t1 w (i + 7) f g hh a in
    let e = (e + x) land m32 and a = (x + t2 b c d) land m32 in
    ra := a;
    rb := b;
    rc := c;
    rd := d;
    re := e;
    rf := f;
    rg := g;
    rh := hh
  done;
  h.(0) <- (h.(0) + !ra) land m32;
  h.(1) <- (h.(1) + !rb) land m32;
  h.(2) <- (h.(2) + !rc) land m32;
  h.(3) <- (h.(3) + !rd) land m32;
  h.(4) <- (h.(4) + !re) land m32;
  h.(5) <- (h.(5) + !rf) land m32;
  h.(6) <- (h.(6) + !rg) land m32;
  h.(7) <- (h.(7) + !rh) land m32

let update t src =
  t.total <- t.total + Bytes.length src;
  let off = ref 0 and len = ref (Bytes.length src) in
  if t.fill > 0 then begin
    let n = min !len (64 - t.fill) in
    Bytes.blit src !off t.block t.fill n;
    t.fill <- t.fill + n;
    off := !off + n;
    len := !len - n;
    if t.fill = 64 then begin
      compress t t.block 0;
      t.fill <- 0
    end
  end;
  while !len >= 64 do
    compress t src !off;
    off := !off + 64;
    len := !len - 64
  done;
  if !len > 0 then begin
    Bytes.blit src !off t.block 0 !len;
    t.fill <- !len
  end

(* Only read, never written. *)
let update_string t s = update t (Bytes.unsafe_of_string s)

let final t =
  let pad_from = t.fill + 1 in
  Bytes.set t.block t.fill '\x80';
  if pad_from > 56 then begin
    Bytes.fill t.block pad_from (64 - pad_from) '\000';
    compress t t.block 0;
    Bytes.fill t.block 0 56 '\000'
  end
  else Bytes.fill t.block pad_from (56 - pad_from) '\000';
  Bytes.set_int64_be t.block 56 (Int64.of_int (t.total * 8));
  compress t t.block 0;
  let out = Bytes.create 32 in
  Array.iteri (fun i v -> Bytes.set_int32_be out (4 * i) (Int32.of_int v)) t.h;
  out

let digest b =
  let t = init () in
  update t b;
  final t

let digest_string s = digest (Bytes.of_string s)

let nibbles = "0123456789abcdef"

let hex b =
  let n = Bytes.length b in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (Bytes.unsafe_get b i) in
    Bytes.unsafe_set out (2 * i) nibbles.[c lsr 4];
    Bytes.unsafe_set out ((2 * i) + 1) nibbles.[c land 15]
  done;
  Bytes.unsafe_to_string out
