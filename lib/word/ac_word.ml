(* Fixed-width two's-complement machine words with C99 semantics.

   This is the concrete arithmetic that the paper's word-abstraction phase
   (Sec 3) removes from view.  Words are represented by their *unsigned*
   representative in [0, 2^width); the signedness lives in operations, not in
   the value, exactly as on hardware.  Signed operations that would overflow
   are undefined behaviour in C: here they return a value (wraparound) and it
   is the translation layer's job to emit guards ruling them out, mirroring
   Norrish's parser. *)

module B = Ac_bignum

type width = W8 | W16 | W32 | W64

type sign = Signed | Unsigned

let bits = function W8 -> 8 | W16 -> 16 | W32 -> 32 | W64 -> 64

let width_equal (a : width) (b : width) = a = b

type t = {
  width : width;
  v : B.t; (* unsigned representative, 0 <= v < 2^width *)
}

let norm width v = { width; v = B.mod_pow2 v (bits width) }

let of_bignum width v = norm width v
let of_int width n = norm width (B.of_int n)

let zero width = of_int width 0
let one width = of_int width 1

let width_of w = w.width

(* The unsigned value: the paper's [unat]. *)
let unat w = w.v

(* The signed value: the paper's [sint]. *)
let sint w = B.signed_mod_pow2 w.v (bits w.width)

let value sign w = match sign with Unsigned -> unat w | Signed -> sint w

let to_int_exn w = B.to_int_exn w.v

let equal a b = width_equal a.width b.width && B.equal a.v b.v

let compare_u a b = B.compare a.v b.v

let compare sign =
  match sign with Unsigned -> compare_u | Signed -> fun a b -> B.compare (sint a) (sint b)

(* Range bounds, per width and signedness: INT_MIN/INT_MAX/UINT_MAX etc.
   They are computed once per width: the analysis asks for them at every
   word operation. *)
let per_width f =
  let w8 = f W8 and w16 = f W16 and w32 = f W32 and w64 = f W64 in
  function W8 -> w8 | W16 -> w16 | W32 -> w32 | W64 -> w64

let signed_min = per_width (fun w -> B.neg (B.pow2 (bits w - 1)))
let signed_max = per_width (fun w -> B.pred (B.pow2 (bits w - 1)))
let unsigned_max = per_width (fun w -> B.pred (B.pow2 (bits w)))

let min_value sign width =
  match sign with
  | Unsigned -> B.zero
  | Signed -> signed_min width

let max_value sign width =
  match sign with
  | Unsigned -> unsigned_max width
  | Signed -> signed_max width

let in_range sign width v = B.le (min_value sign width) v && B.le v (max_value sign width)

(* ------------------------------------------------------------------ *)
(* Arithmetic.  Every operation computes the exact ideal result of the
   operands' values (signed or unsigned view) and reduces modulo 2^width.
   [overflows] reports whether that reduction changed the value — the
   condition the guards emitted by the C translation test for. *)

(* Operands of different widths are ill-typed: an [Invalid_argument],
   which the constant folders treat as an expression they leave alone. *)
let lift2 sign f a b =
  if not (width_equal a.width b.width) then invalid_arg "Ac_word: operand widths differ";
  norm a.width (f (value sign a) (value sign b))

let ideal2 sign f a b = f (value sign a) (value sign b)

let add sign a b = lift2 sign B.add a b
let sub sign a b = lift2 sign B.sub a b
let mul sign a b = lift2 sign B.mul a b

let neg sign a = norm a.width (B.neg (value sign a))

(* C99 6.5.5: signed division truncates toward zero; unsigned is plain
   flooring (values are non-negative so the two agree). *)
let div sign a b =
  if B.is_zero b.v then raise B.Division_by_zero;
  lift2 sign B.div a b

let rem sign a b =
  if B.is_zero b.v then raise B.Division_by_zero;
  lift2 sign B.rem a b

let overflows2 sign f a b =
  let exact = ideal2 sign f a b in
  not (in_range sign a.width exact)

let add_overflows sign a b = overflows2 sign B.add a b

(* INT_MIN / -1 overflows; that is the only divisive overflow case. *)
let div_overflows sign a b =
  match sign with
  | Unsigned -> false
  | Signed -> B.is_zero (B.add (sint b) B.one) && B.equal (sint a) (min_value Signed a.width)

let lognot a = norm a.width (B.sub (max_value Unsigned a.width) a.v)

let logand a b = lift2 Unsigned B.logand a b
let logor a b = lift2 Unsigned B.logor a b
let logxor a b = lift2 Unsigned B.logxor a b

(* Shifts.  C99 6.5.7: the shift amount must be in [0, width); shifting a
   signed negative left, or shifting by >= width, is UB — we still return the
   wrapped value and let guards exclude it. *)
let shift_amount_ok a n = B.le B.zero n && B.lt n (B.of_int (bits a.width))

let shift_left a n =
  let n = Stdlib.min (B.to_int_exn (B.mod_pow2 n 16)) 512 in
  norm a.width (B.shift_left a.v n)

let shift_right_u a n =
  let n = Stdlib.min (B.to_int_exn (B.mod_pow2 n 16)) 512 in
  norm a.width (B.shift_right a.v n)

(* Arithmetic shift right replicates the sign bit. *)
let shift_right_s a n =
  let n = Stdlib.min (B.to_int_exn (B.mod_pow2 n 16)) 512 in
  norm a.width (B.shift_right (sint a) n)

let shift_right sign = match sign with Unsigned -> shift_right_u | Signed -> shift_right_s

(* Casts (C99 6.3.1.3).  To unsigned: reduce mod 2^width.  To signed: if the
   value fits, keep it; otherwise implementation-defined — we use the
   universal two's-complement truncation, which the paper's model ("matches a
   two's-complement 32-bit system") also assumes. *)
let cast ~to_sign ~to_width src_sign w =
  let v = value src_sign w in
  ignore to_sign;
  norm to_width v

let cast_value ~to_sign ~to_width v =
  match to_sign with
  | Unsigned -> B.mod_pow2 v (bits to_width)
  | Signed -> B.signed_mod_pow2 v (bits to_width)

let is_zero w = B.is_zero w.v

(* Byte-level view, little-endian: used by the byte-addressed heap model. *)
let to_bytes w =
  let n = bits w.width / 8 in
  List.init n (fun i -> B.to_int_exn (B.mod_pow2 (B.shift_right w.v (8 * i)) 8))

let of_bytes width bytes =
  let v =
    List.fold_left
      (fun (acc, i) b -> (B.add acc (B.shift_left (B.of_int (b land 0xff)) (8 * i)), i + 1))
      (B.zero, 0) bytes
    |> fst
  in
  norm width v

let pp fmt w = Format.fprintf fmt "0x%s:word%d" (B.to_string w.v) (bits w.width)

let to_string_u w = B.to_string w.v
let to_string_s w = B.to_string (sint w)

let hash w = Hashtbl.hash (w.width, B.hash w.v)
