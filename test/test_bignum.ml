(* Unit and property tests for the bignum substrate.  Properties are checked
   against native [int] arithmetic on ranges where it is exact, and against
   algebraic laws (division identities, ring laws) elsewhere. *)

module B = Ac_bignum

let b = B.of_int
let s = B.to_string

let check_b msg expected actual = Alcotest.(check string) msg expected (s actual)

(* QCheck generator for moderately large bignums built from up to four
   63-bit chunks, so products exercise multi-digit paths. *)
let gen_big =
  let open QCheck.Gen in
  let chunk = map B.of_int (int_range (-0x3FFFFFFF) 0x3FFFFFFF) in
  let* n = int_range 1 4 in
  let* chunks = list_size (return n) chunk in
  return (List.fold_left (fun acc c -> B.add (B.mul acc (B.pow2 30)) c) B.zero chunks)

let arb_big = QCheck.make ~print:s gen_big

let arb_small_int = QCheck.int_range (-1000000) 1000000

(* Values at the edges of the native fast path (magnitudes of at most three
   base-2^16 digits, below 2^48) and of native ints: ±(2^16, 2^32, 2^47 to
   2^49, 2^62, 2^64) plus or minus a small value, mixed with small ints. *)
let gen_edge =
  let open QCheck.Gen in
  let edge =
    let* e = oneofl [ 16; 32; 47; 48; 49; 62; 64 ] in
    let* d = int_range (-70000) 70000 in
    let* neg = bool in
    let v = B.add (B.pow2 e) (b d) in
    return (if neg then B.neg v else v)
  in
  frequency [ (4, edge); (1, map b (int_range (-70000) 70000)) ]

let arb_edge = QCheck.make ~print:s gen_edge

let unit_tests =
  [
    ( "of_string/to_string round trips",
      fun () ->
        List.iter
          (fun str -> Alcotest.(check string) str str (s (B.of_string str)))
          [ "0"; "1"; "-1"; "42"; "-65536"; "4294967296"; "18446744073709551615";
            "-340282366920938463463374607431768211456" ] );
    ( "hex parsing",
      fun () ->
        check_b "0xff" "255" (B.of_string "0xff");
        check_b "0x100000000" "4294967296" (B.of_string "0x100000000");
        check_b "-0x10" "-16" (B.of_string "-0x10") );
    ( "of_int min_int/max_int",
      fun () ->
        check_b "max_int" (string_of_int max_int) (b max_int);
        check_b "min_int" (string_of_int min_int) (b min_int);
        Alcotest.(check (option int)) "round min_int" (Some min_int) (B.to_int_opt (b min_int)) );
    ( "known big product",
      fun () ->
        let m = B.pred (B.pow2 64) in
        (* (2^64-1)^2 = 2^128 - 2^65 + 1 *)
        check_b "(2^64-1)^2" "340282366920938463426481119284349108225" (B.mul m m) );
    ( "pow2 and shifts",
      fun () ->
        check_b "2^0" "1" (B.pow2 0);
        check_b "2^70" "1180591620717411303424" (B.pow2 70);
        check_b "shl" "1180591620717411303424" (B.shift_left B.one 70);
        check_b "shr" "1" (B.shift_right (B.pow2 70) 70);
        check_b "shr neg" "-1" (B.shift_right (b (-1)) 5);
        check_b "shr neg 2" "-2" (B.shift_right (b (-7)) 2) );
    ( "divmod truncates toward zero",
      fun () ->
        let q, r = B.divmod (b 7) (b 2) in
        check_b "q" "3" q;
        check_b "r" "1" r;
        let q, r = B.divmod (b (-7)) (b 2) in
        check_b "q neg" "-3" q;
        check_b "r neg" "-1" r;
        let q, r = B.divmod (b 7) (b (-2)) in
        check_b "q negd" "-3" q;
        check_b "r negd" "1" r );
    ( "fdivmod floors",
      fun () ->
        let q, r = B.fdivmod (b (-7)) (b 2) in
        check_b "fq" "-4" q;
        check_b "fr" "1" r );
    ( "division by zero raises",
      fun () ->
        Alcotest.check_raises "raise" B.Division_by_zero (fun () -> ignore (B.div B.one B.zero)) );
    ( "mod_pow2 and signed_mod_pow2",
      fun () ->
        check_b "u32 of 2^32" "0" (B.mod_pow2 (B.pow2 32) 32);
        check_b "u32 of -1" "4294967295" (B.mod_pow2 (b (-1)) 32);
        check_b "s32 of 2^31" "-2147483648" (B.signed_mod_pow2 (B.pow2 31) 32);
        check_b "s32 of 2^31-1" "2147483647" (B.signed_mod_pow2 (B.pred (B.pow2 31)) 32) );
    ( "gcd",
      fun () ->
        check_b "gcd" "6" (B.gcd (b 54) (b 24));
        check_b "gcd neg" "6" (B.gcd (b (-54)) (b 24));
        check_b "gcd zero" "7" (B.gcd (b 7) B.zero) );
    ( "bitwise",
      fun () ->
        check_b "and" "8" (B.logand (b 12) (b 10));
        check_b "or" "14" (B.logor (b 12) (b 10));
        check_b "xor" "6" (B.logxor (b 12) (b 10));
        Alcotest.check_raises "neg operand" (B.Negative_operand "logand") (fun () ->
            ignore (B.logand (b (-1)) (b 1))) );
    ( "bit_length and test_bit",
      fun () ->
        Alcotest.(check int) "bl 0" 0 (B.bit_length B.zero);
        Alcotest.(check int) "bl 1" 1 (B.bit_length B.one);
        Alcotest.(check int) "bl 255" 8 (B.bit_length (b 255));
        Alcotest.(check int) "bl 2^70" 71 (B.bit_length (B.pow2 70));
        Alcotest.(check bool) "bit set" true (B.test_bit (B.pow2 70) 70);
        Alcotest.(check bool) "bit clear" false (B.test_bit (B.pow2 70) 69) );
    ( "pow",
      fun () ->
        check_b "3^0" "1" (B.pow (b 3) 0);
        check_b "3^27" "7625597484987" (B.pow (b 3) 27) );
    ( "comparisons",
      fun () ->
        Alcotest.(check bool) "lt" true (B.lt (b (-5)) (b 3));
        Alcotest.(check bool) "le" true (B.le (b 3) (b 3));
        Alcotest.(check bool) "min" true (B.equal (B.min (b 2) (b 5)) (b 2));
        Alcotest.(check bool) "max" true (B.equal (B.max (b 2) (b 5)) (b 5)) );
  ]

let prop_tests =
  let open QCheck in
  [
    Test.make ~name:"add matches native" ~count:500 (pair arb_small_int arb_small_int)
      (fun (x, y) -> B.to_int_exn (B.add (b x) (b y)) = x + y);
    Test.make ~name:"mul matches native" ~count:500 (pair arb_small_int arb_small_int)
      (fun (x, y) -> B.to_int_exn (B.mul (b x) (b y)) = x * y);
    Test.make ~name:"div/mod match native" ~count:500 (pair arb_small_int arb_small_int)
      (fun (x, y) ->
        QCheck.assume (y <> 0);
        B.to_int_exn (B.div (b x) (b y)) = x / y && B.to_int_exn (B.rem (b x) (b y)) = x mod y);
    Test.make ~name:"string round trip" ~count:200 arb_big (fun x ->
        B.equal (B.of_string (s x)) x);
    (* Decimal printing works in base-10^4 chunks: check it against the
       native printer, on multi-limb values of either sign, and at the
       chunk boundaries, where a dropped or unpadded chunk would show. *)
    Test.make ~name:"to_string: native, multi-limb, chunk boundaries" ~count:300
      (triple int arb_big arb_big)
      (fun (n, x, y) ->
        let p = B.mul x y in
        let boundary k =
          let ten_k = B.pow (b 10) k and zeros = String.make k '0' in
          String.equal (s ten_k) ("1" ^ zeros)
          && String.equal (s (B.neg ten_k)) ("-1" ^ zeros)
          && String.equal (s (B.pred ten_k)) (if k = 0 then "0" else String.make k '9')
          && String.equal (s (B.succ ten_k))
               (if k = 0 then "2" else "1" ^ String.sub zeros 1 (k - 1) ^ "1")
        in
        String.equal (s (b n)) (string_of_int n)
        && B.equal (B.of_string (s p)) p
        && B.equal (B.of_string (s (B.neg p))) (B.neg p)
        && List.for_all boundary (List.init 41 Fun.id));
    Test.make ~name:"divmod identity" ~count:500 (pair arb_big arb_big) (fun (a, d) ->
        QCheck.assume (not (B.is_zero d));
        let q, r = B.divmod a d in
        B.equal a (B.add (B.mul q d) r)
        && B.lt (B.abs r) (B.abs d)
        && (B.is_zero r || B.sign r = B.sign a));
    Test.make ~name:"fdivmod identity" ~count:500 (pair arb_big arb_big) (fun (a, d) ->
        QCheck.assume (not (B.is_zero d));
        let q, r = B.fdivmod a d in
        B.equal a (B.add (B.mul q d) r)
        && B.lt (B.abs r) (B.abs d)
        && (B.is_zero r || B.sign r = B.sign d));
    Test.make ~name:"mul distributes over add" ~count:300 (triple arb_big arb_big arb_big)
      (fun (a, x, y) -> B.equal (B.mul a (B.add x y)) (B.add (B.mul a x) (B.mul a y)));
    Test.make ~name:"sub then add round trips" ~count:300 (pair arb_big arb_big) (fun (a, x) ->
        B.equal (B.add (B.sub a x) x) a);
    Test.make ~name:"compare antisymmetry" ~count:300 (pair arb_big arb_big) (fun (a, x) ->
        B.compare a x = -B.compare x a);
    Test.make ~name:"shift_left is mul pow2" ~count:200 (pair arb_big (int_range 0 100))
      (fun (a, n) -> B.equal (B.shift_left a n) (B.mul a (B.pow2 n)));
    Test.make ~name:"shift_right is fdiv pow2" ~count:200 (pair arb_big (int_range 0 100))
      (fun (a, n) -> B.equal (B.shift_right a n) (B.fdiv a (B.pow2 n)));
    Test.make ~name:"mod_pow2 in range" ~count:300 (pair arb_big (int_range 1 80)) (fun (a, n) ->
        let r = B.mod_pow2 a n in
        B.le B.zero r && B.lt r (B.pow2 n));
    Test.make ~name:"signed_mod_pow2 in range" ~count:300 (pair arb_big (int_range 1 80))
      (fun (a, n) ->
        let r = B.signed_mod_pow2 a n in
        B.le (B.neg (B.pow2 (n - 1))) r && B.lt r (B.pow2 (n - 1)));
    Test.make ~name:"mod_pow2 congruence" ~count:300 (pair arb_big (int_range 1 80)) (fun (a, n) ->
        B.is_zero (B.fmod (B.sub a (B.mod_pow2 a n)) (B.pow2 n)));
    Test.make ~name:"gcd divides both" ~count:200 (pair arb_big arb_big) (fun (a, x) ->
        QCheck.assume (not (B.is_zero a) || not (B.is_zero x));
        let g = B.gcd a x in
        B.is_zero (B.rem a g) && B.is_zero (B.rem x g));
    Test.make ~name:"bitwise matches native" ~count:300
      (pair (int_range 0 0x3FFFFFFF) (int_range 0 0x3FFFFFFF)) (fun (x, y) ->
        B.to_int_exn (B.logand (b x) (b y)) = x land y
        && B.to_int_exn (B.logor (b x) (b y)) = x lor y
        && B.to_int_exn (B.logxor (b x) (b y)) = x lxor y);
    (* The native fast path against native ints where those are exact, and
       against the ring laws (which mix fast and digit paths) beyond. *)
    Test.make ~name:"fast path: add/sub/mul match native, ring laws" ~count:1000
      (triple arb_edge arb_edge arb_edge) (fun (x, y, z) ->
        let native v = Option.map (fun n -> (n, abs n)) (B.to_int_opt v) in
        let exact =
          match (native x, native y) with
          | Some (m, am), Some (n, an) ->
            (am >= 1 lsl 61 || an >= 1 lsl 61
            || B.to_int_opt (B.add x y) = Some (m + n) && B.to_int_opt (B.sub x y) = Some (m - n))
            && (am >= 1 lsl 31 || an >= 1 lsl 31 || B.to_int_opt (B.mul x y) = Some (m * n))
          | _ -> true
        in
        exact
        && B.equal (B.sub (B.add x y) y) x
        && B.equal (B.add x y) (B.add y x)
        && B.equal (B.sub x y) (B.neg (B.sub y x))
        && B.equal (B.mul x y) (B.mul y x)
        && B.equal (B.mul (B.mul x y) z) (B.mul x (B.mul y z))
        && B.equal (B.mul (B.add x y) z) (B.add (B.mul x z) (B.mul y z)));
    Test.make ~name:"fast path: divmod identity at the edges" ~count:1000
      (pair arb_edge arb_edge) (fun (a, d) ->
        QCheck.assume (not (B.is_zero d));
        let q, r = B.divmod a d in
        B.equal a (B.add (B.mul q d) r)
        && B.lt (B.abs r) (B.abs d)
        && (B.is_zero r || B.sign r = B.sign a));
    Test.make ~name:"fast path: mod_pow2 and signed_mod_pow2 at word widths" ~count:1000
      (pair arb_edge (oneofl [ 1; 8; 16; 32; 63; 64 ])) (fun (x, w) ->
        let m = B.pow2 w and half = B.pow2 (w - 1) in
        let r = B.mod_pow2 x w and sr = B.signed_mod_pow2 x w in
        let congruent v = B.is_zero (B.fmod (B.sub x v) m) in
        B.le B.zero r && B.lt r m && congruent r
        && B.equal r (B.fmod x m)
        && B.le (B.neg half) sr && B.lt sr half && congruent sr);
    (* The store marshals values and the hash-cons tables hash them: a value
       computed on the fast path must be indistinguishable from the same
       value parsed from its digits. *)
    Test.make ~name:"fast path: same hash, string and Marshal image" ~count:1000
      (pair arb_edge arb_edge) (fun (x, y) ->
        List.for_all
          (fun v ->
            let parsed = B.of_string (s v) in
            B.hash v = B.hash parsed
            && String.equal (s v) (s parsed)
            && String.equal (Marshal.to_string v []) (Marshal.to_string parsed []))
          [ B.add x y; B.sub x y; B.mul x y; B.mod_pow2 x 32; B.signed_mod_pow2 y 64;
            (if B.is_zero y then x else B.div x y); (if B.is_zero y then y else B.rem x y);
            b (B.to_int_opt x |> Option.value ~default:0) ]);
  ]

let suite =
  List.map (fun (name, f) -> Alcotest.test_case name `Quick f) unit_tests
  @ List.map QCheck_alcotest.to_alcotest prop_tests
