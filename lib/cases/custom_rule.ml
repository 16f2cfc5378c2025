module E = Ac_lang.Expr
module W = Ac_word
module B = Ac_bignum
module Rules = Ac_kernel.Rules
module J = Ac_kernel.Judgment
module Wa = Autocorres.Wa
module Driver = Autocorres.Driver

(* The paper's rule-extension example (Sec 3.3): the C idiom

     x + y < x            (unsigned)

   tests whether the addition overflows.  Under plain word abstraction the
   user would be obliged to prove x + y does not overflow, "making the test
   useless"; the extension abstracts the test to

     UINT_MAX < x + y

   capturing the intent.  It is registered with the kernel (an explicit
   extension of the trusted rule base, as in the paper) and named in the
   word-abstraction strategy, which has the kernel consult it. *)

let rule_name = "unsigned_overflow_test"

let uint_max w = B.pred (B.pow2 (W.bits w))

(* From the ideal abstractions P, unat x and Q, unat y of the operands,
   abstract x + y < x at conv id to UINT_MAX < x + y under P ∧ Q. *)
let () =
  Rules.register_custom_rule rule_name (fun _ctx sub e ->
      match e with
      | E.Binop (E.Lt, E.Binop (E.Add, x, y), x') when E.equal x x' -> (
        match (sub x, sub y) with
        | Some (p, J.Cunat w1, a1, _), Some (q, J.Cunat w2, a2, _) when w1 = w2 ->
          Some
            ( E.and_e p q,
              J.Cid,
              E.Binop (E.Lt, E.big_nat_e (uint_max w1), E.Binop (E.Add, a1, a2)),
              e )
        | _ -> None)
      | _ -> None)

let strategy_extension : Wa.strategy = [ rule_name ]

(* The demonstration program: returns 1 iff x + y would overflow. *)
let overflow_test_c =
  "unsigned would_overflow(unsigned x, unsigned y)\n\
   {\n\
  \  if (x + y < x)\n\
  \    return 1u;\n\
  \  return 0u;\n\
   }\n"

type demo = {
  without_rule : string; (* abstraction using only the built-in rule set *)
  with_rule : string; (* abstraction with the registered extension *)
}

let run () : demo =
  let show options =
    let res = Driver.run ~options overflow_test_c in
    match Driver.find_result res "would_overflow" with
    | Some fr -> Ac_monad.Mprint.func_to_string fr.Driver.fr_final
    | None -> "<missing>"
  in
  {
    without_rule = show Driver.default_options;
    with_rule = show { Driver.default_options with strategy = strategy_extension };
  }
