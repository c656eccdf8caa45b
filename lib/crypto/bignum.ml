(* Little-endian arrays of 26-bit limbs, normalised (no trailing zero
   limbs).  26-bit limbs keep products within OCaml's 63-bit ints. *)

let limb_bits = 26
let base = 1 lsl limb_bits
let mask = base - 1

type t = int array

let zero : t = [||]
let is_zero (a : t) = Array.length a = 0

let normalize (a : int array) =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int n =
  if n < 0 then invalid_arg "Bignum.of_int: negative";
  let rec go n acc = if n = 0 then acc else go (n lsr limb_bits) ((n land mask) :: acc) in
  normalize (Array.of_list (List.rev (go n [])))

let one = of_int 1
let two = of_int 2

let to_int (a : t) =
  let n = Array.length a in
  if n * limb_bits > 62 && n > 0 && a.(n - 1) lsl ((n - 1) * limb_bits) < 0 then
    failwith "Bignum.to_int: too large";
  let v = ref 0 in
  for i = n - 1 downto 0 do
    if !v > max_int lsr limb_bits then failwith "Bignum.to_int: too large";
    v := (!v lsl limb_bits) lor a.(i)
  done;
  !v

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)

let equal a b = compare a b = 0

let rec bit_length v = if v = 0 then 0 else 1 + bit_length (v lsr 1)

let num_bits (a : t) =
  let n = Array.length a in
  if n = 0 then 0 else ((n - 1) * limb_bits) + bit_length a.(n - 1)

let is_even (a : t) = Array.length a = 0 || a.(0) land 1 = 0
let bit (a : t) i =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb + 1 in
  let r = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land mask;
    carry := s lsr limb_bits
  done;
  normalize r

let sub (a : t) (b : t) : t =
  if compare a b < 0 then invalid_arg "Bignum.sub: negative result";
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  normalize r

let mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let v = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- v land mask;
        carry := v lsr limb_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let v = r.(!k) + !carry in
        r.(!k) <- v land mask;
        carry := v lsr limb_bits;
        incr k
      done
    done;
    normalize r
  end

let shift_left (a : t) bits : t =
  if is_zero a || bits = 0 then a
  else begin
    let limbs = bits / limb_bits and off = bits mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl off in
      r.(i + limbs) <- r.(i + limbs) lor (v land mask);
      r.(i + limbs + 1) <- r.(i + limbs + 1) lor (v lsr limb_bits)
    done;
    normalize r
  end

let shift_right (a : t) bits : t =
  if bits = 0 then a
  else begin
    let limbs = bits / limb_bits and off = bits mod limb_bits in
    let la = Array.length a in
    if limbs >= la then zero
    else begin
      let n = la - limbs in
      let r = Array.make n 0 in
      for i = 0 to n - 1 do
        let lo = a.(i + limbs) lsr off in
        let hi = if i + limbs + 1 < la then (a.(i + limbs + 1) lsl (limb_bits - off)) land mask else 0 in
        r.(i) <- if off = 0 then a.(i + limbs) else lo lor hi
      done;
      normalize r
    end
  end

(* Schoolbook long division (Knuth, TAOCP vol. 2, 4.3.1, Algorithm D): one
   quotient limb per step, estimated from the top two limbs of the running
   remainder and corrected at most twice before the multiply-subtract. *)
let divmod (a : t) (b : t) =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else begin
    let la = Array.length a and n = Array.length b in
    if n = 1 then begin
      let d = b.(0) in
      let q = Array.make la 0 and r = ref 0 in
      for i = la - 1 downto 0 do
        let cur = (!r lsl limb_bits) lor a.(i) in
        q.(i) <- cur / d;
        r := cur mod d
      done;
      (normalize q, of_int !r)
    end
    else begin
      (* Scale both operands so the divisor's top limb has its high bit set. *)
      let s = limb_bits - bit_length b.(n - 1) in
      let v = shift_left b s in
      let u = Array.make (la + 1) 0 in
      let sa = shift_left a s in
      Array.blit sa 0 u 0 (Array.length sa);
      let vtop = v.(n - 1) and vnext = v.(n - 2) in
      let q = Array.make (la - n + 1) 0 in
      for j = la - n downto 0 do
        let num = (u.(j + n) lsl limb_bits) lor u.(j + n - 1) in
        let qhat = ref (num / vtop) and rhat = ref (num mod vtop) in
        while
          !qhat >= base
          || (!rhat < base && !qhat * vnext > (!rhat lsl limb_bits) lor u.(j + n - 2))
        do
          decr qhat;
          rhat := !rhat + vtop
        done;
        let carry = ref 0 and borrow = ref 0 in
        for i = 0 to n - 1 do
          let p = (!qhat * v.(i)) + !carry in
          carry := p lsr limb_bits;
          let d = u.(i + j) - (p land mask) - !borrow in
          borrow := if d < 0 then 1 else 0;
          u.(i + j) <- d land mask
        done;
        if u.(j + n) - !carry - !borrow < 0 then begin
          (* The estimate was one too large: add the divisor back. *)
          decr qhat;
          let c = ref 0 in
          for i = 0 to n - 1 do
            let x = u.(i + j) + v.(i) + !c in
            u.(i + j) <- x land mask;
            c := x lsr limb_bits
          done
        end;
        u.(j + n) <- 0;
        q.(j) <- !qhat
      done;
      (normalize q, shift_right (normalize (Array.sub u 0 n)) s)
    end
  end

let rem a b = snd (divmod a b)

(* In-place arithmetic on fixed-width limb arrays: the length of [x] is the
   width, and [y] is at least that long. *)
let ge_fixed (x : int array) (y : int array) =
  let i = ref (Array.length x - 1) in
  while !i >= 0 && x.(!i) = y.(!i) do
    decr i
  done;
  !i < 0 || x.(!i) > y.(!i)

(* x <- x - y mod base^width *)
let sub_fixed (x : int array) (y : int array) =
  let borrow = ref 0 in
  for i = 0 to Array.length x - 1 do
    let d = x.(i) - y.(i) - !borrow in
    borrow := if d < 0 then 1 else 0;
    x.(i) <- d land mask
  done

(* x <- x + y mod base^width *)
let add_fixed (x : int array) (y : int array) =
  let carry = ref 0 in
  for i = 0 to Array.length x - 1 do
    let v = x.(i) + y.(i) + !carry in
    carry := v lsr limb_bits;
    x.(i) <- v land mask
  done

let fixed k (x : t) =
  let r = Array.make k 0 in
  Array.blit x 0 r 0 (Array.length x);
  r

(* Montgomery arithmetic modulo an odd [m] of [k] limbs, with R = base^k.
   Operands are fixed-width [k]-limb arrays below [m]. *)

(* -m^-1 mod base.  An odd m0 is its own inverse mod 8; each Newton step
   doubles the number of correct low bits (3, 6, 12, 24, 48). *)
let neg_inv_limb m0 =
  let x = ref m0 in
  for _ = 1 to 4 do
    x := !x * (2 - (m0 * !x)) land mask
  done;
  (base - !x) land mask

(* r <- a * b / R mod m, by product scanning: column sums of a*b and u*m,
   where u is chosen limb by limb to clear the low k limbs.  A column holds
   at most 2k products below 2^52, so it never overflows for k < 512.
   [u] is k limbs of scratch; [r] may not alias [a] or [b]. *)
let mont_mul ~m ~minv ~u r a b =
  let k = Array.length m in
  let acc = ref 0 in
  for i = 0 to k - 1 do
    for j = 0 to i - 1 do
      acc :=
        !acc
        + (Array.unsafe_get a j * Array.unsafe_get b (i - j))
        + (Array.unsafe_get u j * Array.unsafe_get m (i - j))
    done;
    acc := !acc + (a.(i) * b.(0));
    let ui = (!acc land mask) * minv land mask in
    u.(i) <- ui;
    acc := (!acc + (ui * m.(0))) lsr limb_bits
  done;
  for i = k to (2 * k) - 2 do
    for j = i - k + 1 to k - 1 do
      acc :=
        !acc
        + (Array.unsafe_get a j * Array.unsafe_get b (i - j))
        + (Array.unsafe_get u j * Array.unsafe_get m (i - j))
    done;
    r.(i - k) <- !acc land mask;
    acc := !acc lsr limb_bits
  done;
  r.(k - 1) <- !acc land mask;
  (* The sum is below 2m: subtract m once if it overflowed or r >= m. *)
  if !acc lsr limb_bits > 0 || ge_fixed r m then sub_fixed r m

(* Fixed 4-bit windows, most significant first; the table of b^i R mod m
   is filled on first use, so a sparse exponent such as 65537 costs no
   more than square-and-multiply. *)
let mont_modexp b exp m =
  let k = Array.length m in
  let minv = neg_inv_limb m.(0) in
  let u = Array.make k 0 in
  let fixed = fixed k in
  let table = Array.make 16 [||] in
  table.(1) <- fixed (rem (shift_left b (k * limb_bits)) m);
  let rec entry i =
    if Array.length table.(i) = 0 then begin
      let r = Array.make k 0 in
      if i land 1 = 0 then (let h = entry (i / 2) in mont_mul ~m ~minv ~u r h h)
      else mont_mul ~m ~minv ~u r (entry (i - 1)) table.(1);
      table.(i) <- r
    end;
    table.(i)
  in
  let window w =
    let pos = 4 * w in
    let limb = pos / limb_bits and off = pos mod limb_bits in
    let hi = if limb + 1 < Array.length exp then exp.(limb + 1) lsl (limb_bits - off) else 0 in
    ((exp.(limb) lsr off) lor hi) land 0xf
  in
  let nwin = (num_bits exp + 3) / 4 in
  let x = ref (Array.copy (entry (window (nwin - 1)))) and y = ref (Array.make k 0) in
  let step a b =
    mont_mul ~m ~minv ~u !y a b;
    let t = !x in
    x := !y;
    y := t
  in
  for w = nwin - 2 downto 0 do
    for _ = 1 to 4 do
      step !x !x
    done;
    let d = window w in
    if d <> 0 then step !x (entry d)
  done;
  step !x (fixed one);
  normalize !x

let modexp ~base:b ~exp ~m =
  if is_zero m then raise Division_by_zero;
  if equal m one then zero
  else if is_zero exp then one
  else if (not (is_even m)) && Array.length m < 512 then mont_modexp b exp m
  else begin
    (* Even moduli (no caller in the library needs one): plain
       square-and-multiply, reducing each product by division. *)
    let b = rem b m and r = ref one in
    for i = num_bits exp - 1 downto 0 do
      r := rem (mul !r !r) m;
      if bit exp i then r := rem (mul !r b) m
    done;
    !r
  end

let gcd a b =
  let rec go a b = if is_zero b then a else go b (rem a b) in
  if compare a b >= 0 then go a b else go b a

(* Binary extended Euclid for an odd modulus (Menezes et al., Handbook of
   Applied Cryptography, 14.61), in place on fixed-width arrays one limb
   wider than [m]: u and v shrink towards gcd(a, m) while x1 * a = u and
   x2 * a = v (mod m). *)
let modinv_odd a m =
  let k = Array.length m + 1 in
  let m = fixed k m in
  let u = fixed k a and v = Array.copy m and x1 = fixed k one and x2 = Array.make k 0 in
  let is_small x c =
    let i = ref 1 in
    while !i < k && x.(!i) = 0 do
      incr i
    done;
    !i = k && x.(0) = c
  in
  (* x <- x / 2, or (x + m) / 2 for odd x: halving mod m. *)
  let halve ~modulo x =
    if modulo && x.(0) land 1 = 1 then add_fixed x m;
    for i = 0 to k - 2 do
      x.(i) <- (x.(i) lsr 1) lor ((x.(i + 1) land 1) lsl (limb_bits - 1))
    done;
    x.(k - 1) <- x.(k - 1) lsr 1
  in
  (* x <- x - y mod m, for x, y < m *)
  let sub_mod x y =
    if not (ge_fixed x y) then add_fixed x m;
    sub_fixed x y
  in
  while not (is_small u 1 || is_small v 1) do
    if is_small u 0 || is_small v 0 then raise Not_found;
    while u.(0) land 1 = 0 do
      halve ~modulo:false u;
      halve ~modulo:true x1
    done;
    while v.(0) land 1 = 0 do
      halve ~modulo:false v;
      halve ~modulo:true x2
    done;
    if ge_fixed u v then begin
      sub_fixed u v;
      sub_mod x1 x2
    end
    else begin
      sub_fixed v u;
      sub_mod x2 x1
    end
  done;
  normalize (if is_small u 1 then x1 else x2)

let modinv a ~m =
  let a = rem a m in
  if is_zero a then raise Not_found
  else if not (is_even m) then modinv_odd a m
  else if is_even a then raise Not_found
  else if equal a one then one
  else
    (* With y = m^-1 mod a (an odd modulus), m*y = 1 + a*t for some
       0 < t < m, so a * (m - t) = 1 (mod m). *)
    let y = modinv_odd (rem m a) a in
    sub m (fst (divmod (sub (mul m y) one) a))

(* Digits of [width] <= 8 bits at bit position [pos], packed straight into
   limbs, so parsing and printing are linear in the length. *)
let set_digit (r : int array) ~pos d =
  let limb = pos / limb_bits and off = pos mod limb_bits in
  r.(limb) <- r.(limb) lor ((d lsl off) land mask);
  if d lsr (limb_bits - off) <> 0 then r.(limb + 1) <- r.(limb + 1) lor (d lsr (limb_bits - off))

let get_digit (a : t) ~width ~pos =
  let limb = pos / limb_bits and off = pos mod limb_bits in
  let hi = if limb + 1 < Array.length a then a.(limb + 1) lsl (limb_bits - off) else 0 in
  ((a.(limb) lsr off) lor hi) land ((1 lsl width) - 1)

let of_bytes_be b =
  let n = Bytes.length b in
  let r = Array.make (((8 * n) + limb_bits - 1) / limb_bits) 0 in
  for i = 0 to n - 1 do
    set_digit r ~pos:(8 * (n - 1 - i)) (Char.code (Bytes.get b i))
  done;
  normalize r

let to_bytes_be ?len (a : t) =
  let used = (num_bits a + 7) / 8 in
  let nbytes = max 1 used in
  let out_len = match len with Some l -> l | None -> nbytes in
  if nbytes > out_len then invalid_arg "Bignum.to_bytes_be: value too large for len";
  let b = Bytes.make out_len '\000' in
  for i = 0 to used - 1 do
    Bytes.set b (out_len - 1 - i) (Char.chr (get_digit a ~width:8 ~pos:(8 * i)))
  done;
  b

let of_hex s =
  let r = Array.make (((4 * String.length s) + limb_bits - 1) / limb_bits) 0 in
  let pos = ref 0 in
  for i = String.length s - 1 downto 0 do
    let c = s.[i] in
    let d =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | '_' | ' ' -> -1
      | _ -> invalid_arg "Bignum.of_hex"
    in
    if d >= 0 then begin
      set_digit r ~pos:!pos d;
      pos := !pos + 4
    end
  done;
  normalize r

let to_hex (a : t) =
  if is_zero a then "0"
  else
    let n = (num_bits a + 3) / 4 in
    String.init n (fun i -> "0123456789abcdef".[get_digit a ~width:4 ~pos:(4 * (n - 1 - i))])

let random_bits rng ~bits =
  if bits <= 0 then invalid_arg "Bignum.random_bits";
  let nbytes = (bits + 7) / 8 in
  let b = Drbg.bytes rng nbytes in
  (* Clear excess top bits, then force the top bit on. *)
  let excess = (nbytes * 8) - bits in
  let top = Char.code (Bytes.get b 0) land (0xff lsr excess) in
  Bytes.set b 0 (Char.chr (top lor (1 lsl (7 - excess))));
  of_bytes_be b

let random_below rng n =
  if is_zero n then invalid_arg "Bignum.random_below: zero bound";
  let bits = num_bits n in
  let rec try_ () =
    let nbytes = (bits + 7) / 8 in
    let b = Drbg.bytes rng nbytes in
    let excess = (nbytes * 8) - bits in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) land (0xff lsr excess)));
    let v = of_bytes_be b in
    if compare v n < 0 then v else try_ ()
  in
  try_ ()
