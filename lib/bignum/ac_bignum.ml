(* Arbitrary-precision signed integers.

   The paper abstracts machine words into Isabelle/HOL's unbounded [int] and
   [nat] types.  OCaml's native [int] is 63-bit, which cannot faithfully model
   ideal integers (e.g. products of 64-bit words), so we implement a small
   bignum substrate from scratch: sign-magnitude, little-endian base-2^16
   digit arrays.  Performance is a non-goal; values in this code base are a
   few hundred bits at most. *)

let base_bits = 16
let base = 1 lsl base_bits
let base_mask = base - 1

type t = {
  sign : int; (* -1, 0 or 1; sign = 0 iff mag = [||] *)
  mag : int array; (* little-endian digits in [0, base), no leading zeros *)
}

exception Division_by_zero
exception Negative_operand of string

(* ------------------------------------------------------------------ *)
(* Magnitude helpers.  Magnitudes are digit arrays with no trailing
   (high-order) zeros; [||] represents zero. *)

let mag_normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let mag_is_zero a = Array.length a = 0

let mag_compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)

let mag_add a b =
  let la = Array.length a and lb = Array.length b in
  let lr = 1 + max la lb in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let da = if i < la then a.(i) else 0 in
    let db = if i < lb then b.(i) else 0 in
    let s = da + db + !carry in
    r.(i) <- s land base_mask;
    carry := s lsr base_bits
  done;
  assert (!carry = 0);
  mag_normalize r

(* Requires a >= b. *)
let mag_sub a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let da = a.(i) in
    let db = if i < lb then b.(i) else 0 in
    let s = da - db - !borrow in
    if s < 0 then begin
      r.(i) <- s + base;
      borrow := 1
    end
    else begin
      r.(i) <- s;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  mag_normalize r

let mag_mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      for j = 0 to lb - 1 do
        let s = r.(i + j) + (a.(i) * b.(j)) + !carry in
        r.(i + j) <- s land base_mask;
        carry := s lsr base_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let s = r.(!k) + !carry in
        r.(!k) <- s land base_mask;
        carry := s lsr base_bits;
        incr k
      done
    done;
    mag_normalize r
  end

let mag_bit_length a =
  let l = Array.length a in
  if l = 0 then 0
  else begin
    let top = a.(l - 1) in
    let rec width n = if top lsr n = 0 then n else width (n + 1) in
    ((l - 1) * base_bits) + width 1
  end

let mag_test_bit a i =
  let d = i / base_bits and o = i mod base_bits in
  if d >= Array.length a then false else (a.(d) lsr o) land 1 = 1

let mag_shift_left a n =
  if mag_is_zero a then [||]
  else begin
    let dig = n / base_bits and off = n mod base_bits in
    let la = Array.length a in
    let r = Array.make (la + dig + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl off in
      r.(i + dig) <- r.(i + dig) lor (v land base_mask);
      r.(i + dig + 1) <- r.(i + dig + 1) lor (v lsr base_bits)
    done;
    mag_normalize r
  end

let mag_shift_right a n =
  let dig = n / base_bits and off = n mod base_bits in
  let la = Array.length a in
  if dig >= la then [||]
  else begin
    let lr = la - dig in
    let r = Array.make lr 0 in
    for i = 0 to lr - 1 do
      let lo = a.(i + dig) lsr off in
      let hi = if i + dig + 1 < la && off > 0 then (a.(i + dig + 1) lsl (base_bits - off)) land base_mask else 0 in
      r.(i) <- lo lor hi
    done;
    mag_normalize r
  end

(* Binary long division on magnitudes: returns (quotient, remainder).
   O(bits^2), which is ample for the word sizes in this code base. *)
let mag_divmod a b =
  if mag_is_zero b then raise Division_by_zero;
  if mag_compare a b < 0 then ([||], a)
  else begin
    let bits_a = mag_bit_length a and bits_b = mag_bit_length b in
    let shift = bits_a - bits_b in
    let q = Array.make (shift / base_bits + 1) 0 in
    let rem = ref a in
    for i = shift downto 0 do
      let d = mag_shift_left b i in
      if mag_compare !rem d >= 0 then begin
        rem := mag_sub !rem d;
        q.(i / base_bits) <- q.(i / base_bits) lor (1 lsl (i mod base_bits))
      end
    done;
    (mag_normalize q, !rem)
  end

(* ------------------------------------------------------------------ *)
(* Construction. *)

let zero = { sign = 0; mag = [||] }

let of_mag sign mag =
  let mag = mag_normalize mag in
  if mag_is_zero mag then zero else { sign; mag }

let rec of_int n =
  if n = 0 then zero
  else if n = min_int then
    (* abs min_int overflows; build it as -(max_int + 1). *)
    { sign = -1; mag = mag_add (of_int max_int).mag [| 1 |] }
  else begin
    let sign = if n < 0 then -1 else 1 in
    let rec digits acc n = if n = 0 then acc else digits ((n land base_mask) :: acc) (n lsr base_bits) in
    of_mag sign (Array.of_list (List.rev (digits [] (abs n))))
  end

let one = of_int 1
let two = of_int 2
let minus_one = of_int (-1)

let is_zero x = x.sign = 0
let sign x = x.sign

let compare a b =
  if a.sign <> b.sign then compare a.sign b.sign
  else if a.sign >= 0 then mag_compare a.mag b.mag
  else mag_compare b.mag a.mag

let equal a b = compare a b = 0
let lt a b = compare a b < 0
let le a b = compare a b <= 0
let gt a b = compare a b > 0
let ge a b = compare a b >= 0

let min a b = if le a b then a else b
let max a b = if ge a b then a else b

let neg x = if x.sign = 0 then zero else { x with sign = -x.sign }
let abs x = if x.sign < 0 then neg x else x

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then { sign = a.sign; mag = mag_add a.mag b.mag }
  else begin
    let c = mag_compare a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then { sign = a.sign; mag = mag_sub a.mag b.mag }
    else { sign = b.sign; mag = mag_sub b.mag a.mag }
  end

let sub a b = add a (neg b)

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else { sign = a.sign * b.sign; mag = mag_mul a.mag b.mag }

(* Truncated division (like OCaml's / and mod): quotient rounds toward zero,
   remainder has the sign of the dividend. *)
let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  let q, r = mag_divmod a.mag b.mag in
  let quot = of_mag (a.sign * b.sign) q in
  let rem = of_mag a.sign r in
  (quot, rem)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

(* Flooring division: quotient rounds toward negative infinity; remainder has
   the sign of the divisor.  Used to implement modular reduction. *)
let fdivmod a b =
  let q, r = divmod a b in
  if is_zero r || r.sign = b.sign then (q, r) else (sub q one, add r b)

let fdiv a b = fst (fdivmod a b)
let fmod a b = snd (fdivmod a b)

let succ x = add x one
let pred x = sub x one

let pow2 n =
  if n < 0 then invalid_arg "Ac_bignum.pow2";
  of_mag 1 (mag_shift_left [| 1 |] n)

let pow b n =
  if n < 0 then invalid_arg "Ac_bignum.pow";
  let rec go acc b n =
    if n = 0 then acc
    else begin
      let acc = if n land 1 = 1 then mul acc b else acc in
      go acc (mul b b) (n lsr 1)
    end
  in
  go one b n

let shift_left x n =
  if n < 0 then invalid_arg "Ac_bignum.shift_left";
  if x.sign = 0 then zero else { x with mag = mag_shift_left x.mag n }

(* Arithmetic shift right: floor (x / 2^n). *)
let shift_right x n =
  if n < 0 then invalid_arg "Ac_bignum.shift_right";
  if x.sign >= 0 then of_mag 1 (mag_shift_right x.mag n)
  else fdiv x (pow2 n)

let test_bit x i =
  if x.sign < 0 then raise (Negative_operand "test_bit");
  mag_test_bit x.mag i

let bit_length x = mag_bit_length x.mag

(* Bitwise operations, defined on non-negative values only.  The word layer
   normalises to the unsigned representative before calling these. *)
let bitwise name f a b =
  if a.sign < 0 || b.sign < 0 then raise (Negative_operand name);
  let la = Array.length a.mag and lb = Array.length b.mag in
  let lr = Stdlib.max la lb in
  let r = Array.make (Stdlib.max lr 1) 0 in
  for i = 0 to lr - 1 do
    let da = if i < la then a.mag.(i) else 0 in
    let db = if i < lb then b.mag.(i) else 0 in
    r.(i) <- f da db
  done;
  of_mag 1 r

let logand a b = bitwise "logand" ( land ) a b
let logor a b = bitwise "logor" ( lor ) a b
let logxor a b = bitwise "logxor" ( lxor ) a b

let gcd a b =
  let rec go a b = if is_zero b then a else go b (rem a b) in
  go (abs a) (abs b)

(* ------------------------------------------------------------------ *)
(* Conversions. *)

let to_int_opt x =
  (* Valid for |x| <= max_int; min_int handled via the positive branch. *)
  let l = Array.length x.mag in
  if l * base_bits <= 62 then begin
    let v = ref 0 in
    for i = l - 1 downto 0 do
      v := (!v lsl base_bits) lor x.mag.(i)
    done;
    Some (if x.sign < 0 then - !v else !v)
  end
  else begin
    match compare x (of_int max_int) <= 0 && compare x (of_int min_int) >= 0 with
    | true ->
      let v = ref 0 in
      for i = l - 1 downto 0 do
        v := (!v * base) + x.mag.(i)
      done;
      Some (if x.sign < 0 then - !v else !v)
    | false -> None
  end

let to_int_exn x =
  match to_int_opt x with
  | Some v -> v
  | None -> failwith "Ac_bignum.to_int_exn: out of native range"

let to_float x =
  let l = Array.length x.mag in
  let v = ref 0.0 in
  for i = l - 1 downto 0 do
    v := (!v *. float_of_int base) +. float_of_int x.mag.(i)
  done;
  if x.sign < 0 then -. !v else !v

let ten = of_int 10

(* Decimal printing peels four digits per pass: one short division of the
   magnitude by 10^4, which fits a single base-2^16 digit, so a pass is one
   sweep over the digits and its partial remainder (below 10^4 * 2^16)
   stays a native int. *)
let to_string x =
  if x.sign = 0 then "0"
  else begin
    let chunk = 10_000 in
    let mag = Array.copy x.mag in
    let top = ref (Array.length mag) and chunks = ref [] in
    while !top > 0 do
      let r = ref 0 in
      for i = !top - 1 downto 0 do
        let cur = (!r lsl base_bits) lor mag.(i) in
        mag.(i) <- cur / chunk;
        r := cur mod chunk
      done;
      while !top > 0 && mag.(!top - 1) = 0 do
        decr top
      done;
      chunks := !r :: !chunks
    done;
    let buf = Buffer.create (4 * List.length !chunks + 1) in
    if x.sign < 0 then Buffer.add_char buf '-';
    List.iteri
      (fun i c ->
        if i = 0 then Buffer.add_string buf (string_of_int c)
        else Printf.bprintf buf "%04d" c)
      !chunks;
    Buffer.contents buf
  end

let of_string s =
  let s = String.trim s in
  if s = "" then invalid_arg "Ac_bignum.of_string: empty";
  let negative, start =
    match s.[0] with
    | '-' -> (true, 1)
    | '+' -> (false, 1)
    | _ -> (false, 0)
  in
  if start >= String.length s then invalid_arg "Ac_bignum.of_string: sign only";
  let hex = String.length s - start > 2 && s.[start] = '0' && (s.[start + 1] = 'x' || s.[start + 1] = 'X') in
  let v = ref zero in
  if hex then begin
    let sixteen = of_int 16 in
    for i = start + 2 to String.length s - 1 do
      let c = s.[i] in
      let d =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> 10 + Char.code c - Char.code 'a'
        | 'A' .. 'F' -> 10 + Char.code c - Char.code 'A'
        | _ -> invalid_arg "Ac_bignum.of_string: bad hex digit"
      in
      v := add (mul !v sixteen) (of_int d)
    done
  end
  else
    for i = start to String.length s - 1 do
      match s.[i] with
      | '0' .. '9' as c -> v := add (mul !v ten) (of_int (Char.code c - Char.code '0'))
      | _ -> invalid_arg "Ac_bignum.of_string: bad digit"
    done;
  if negative then neg !v else !v

let pp fmt x = Format.pp_print_string fmt (to_string x)

let hash x = Hashtbl.hash (x.sign, x.mag)

(* Modular reduction to [0, 2^n): the C unsigned-overflow semantics. *)
let mod_pow2 x n = fmod x (pow2 n)

(* Reduction to the signed two's-complement range [-2^(n-1), 2^(n-1)). *)
let signed_mod_pow2 x n =
  let m = pow2 n in
  let r = fmod x m in
  if ge r (pow2 (n - 1)) then sub r m else r
