(* Tests for the C front end: lexer, parser, typechecker/elaborator. *)

module B = Ac_bignum
open Ac_cfront

let parse = Parser.parse_program
let check_tc src = Typecheck.parse_and_check src

let expect_type_error src =
  match check_tc src with
  | exception Typecheck.Type_error _ -> ()
  | exception Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail ("expected rejection: " ^ src)

let max_c =
  "int max(int a, int b) {\n  if (a < b)\n    return b;\n  return a;\n}\n"

let swap_c =
  "void swap(unsigned *a, unsigned *b) {\n  unsigned t = *a;\n  *a = *b;\n  *b = t;\n}\n"

let reverse_c =
  "struct node { struct node *next; unsigned data; };\n\
   struct node *reverse(struct node *list) {\n\
  \  struct node *rev = NULL;\n\
  \  while (list) {\n\
  \    struct node *next = list->next;\n\
  \    list->next = rev; rev = list; list = next;\n\
  \  }\n\
  \  return rev;\n\
   }\n"

let lexer_tests =
  [
    ( "tokenizes max",
      fun () ->
        let toks = Lexer.tokenize max_c in
        Alcotest.(check bool) "nonempty" true (List.length toks > 10) );
    ( "integer literals",
      fun () ->
        let toks = Lexer.tokenize "0x10 42u 7ull 5LL 010 0777u 00" in
        let lits =
          List.filter_map
            (fun (t : Lexer.loc_token) ->
              match t.tok with Lexer.INT_LIT (v, u, ll) -> Some (B.to_string v, u, ll) | _ -> None)
            toks
        in
        Alcotest.(check (list (triple string bool bool)))
          "values"
          [
            ("16", false, false); ("42", true, false); ("7", true, true); ("5", false, true);
            ("8", false, false); ("511", true, false); ("0", false, false);
          ]
          lits );
    ( "comments and preprocessor lines are skipped",
      fun () ->
        let toks = Lexer.tokenize "#include <x.h>\n// c1\n/* c2\nc3 */ int x;" in
        Alcotest.(check int) "3 tokens + eof" 4 (List.length toks) );
    ( "lex error reported with position",
      fun () ->
        match Lexer.tokenize "int @;" with
        | exception Lexer.Lex_error (_, pos) -> Alcotest.(check int) "line" 1 pos.line
        | _ -> Alcotest.fail "expected lex error" );
  ]

let parser_tests =
  [
    ( "parses the paper's examples",
      fun () ->
        List.iter
          (fun src -> ignore (parse src))
          [ max_c; swap_c; reverse_c ] );
    ( "declarations and full operator set",
      fun () ->
        ignore
          (parse
             "int f(int x) { int y = x * 2 + 1; y <<= 2; y |= x & 7; y ^= ~x; \
              return y % 3 == 0 ? y / 3 : -y; }") );
    ( "for loops, do-while, break/continue",
      fun () ->
        ignore
          (parse
             "int g(int n) { int s = 0; for (int i = 0; i < n; i = i + 1) { if (i == 3) \
              continue; s += i; } do { s--; } while (s > 10); while (1) { break; } return s; }")
    );
    ( "struct declarations and member access",
      fun () ->
        ignore
          (parse
             "struct pair { int fst; int snd; };\n\
              int sum(struct pair *p) { return p->fst + (*p).snd; }") );
    ( "sizeof and casts",
      fun () ->
        ignore
          (parse
             "unsigned h(unsigned char c) { return sizeof(int) + sizeof c + (unsigned) c; }")
    );
    ( "parse error carries position",
      fun () ->
        match parse "int f() { return 1 + ; }" with
        | exception Parser.Parse_error (_, pos) -> Alcotest.(check int) "line 1" 1 pos.line
        | _ -> Alcotest.fail "expected parse error" );
    ( "array indexing via pointers",
      fun () -> ignore (parse "int get(int *a, unsigned i) { return a[i]; }") );
  ]

let typecheck_tests =
  [
    ( "accepts the paper's examples",
      fun () ->
        List.iter (fun src -> ignore (check_tc src)) [ max_c; swap_c; reverse_c ] );
    ( "usual arithmetic conversions: int + unsigned = unsigned",
      fun () ->
        let prog = check_tc "unsigned f(int a, unsigned b) { return a + b; }" in
        let f = List.hd prog.Tir.tp_funcs in
        match f.tf_body.Tir.ts with
        | Tir.Treturn (Some e) ->
          Alcotest.(check string) "type" "unsigned int" (Ast.ctype_to_string e.tt)
        | _ -> Alcotest.fail "unexpected shape" );
    ( "integer promotion: char + char = int",
      fun () ->
        let prog = check_tc "int f(char a, char b) { return a + b; }" in
        let f = List.hd prog.Tir.tp_funcs in
        match f.tf_body.Tir.ts with
        | Tir.Treturn (Some e) -> Alcotest.(check string) "type" "int" (Ast.ctype_to_string e.tt)
        | _ -> Alcotest.fail "unexpected shape" );
    ( "long long arithmetic is 64-bit",
      fun () ->
        let prog = check_tc "long long f(long long a, int b) { return a * b; }" in
        let f = List.hd prog.Tir.tp_funcs in
        match f.tf_body.Tir.ts with
        | Tir.Treturn (Some e) ->
          Alcotest.(check string) "type" "long long" (Ast.ctype_to_string e.tt)
        | _ -> Alcotest.fail "unexpected shape" );
    ( "locals shadowing is alpha-renamed",
      fun () ->
        let prog =
          check_tc "int f(int x) { int y = x; { int y = 2; x = y; } return y; }"
        in
        let f = List.hd prog.Tir.tp_funcs in
        Alcotest.(check int) "two locals" 2 (List.length f.tf_locals);
        let names = List.map fst f.tf_locals in
        Alcotest.(check bool) "distinct" true (List.nth names 0 <> List.nth names 1) );
    ( "rejects address of a local (paper's subset)",
      fun () -> expect_type_error "int f() { int x = 1; int *p = &x; return *p; }" );
    ( "rejects calls nested in expressions",
      fun () ->
        expect_type_error "int g(int x) { return x; } int f() { return g(1) + 2; }" );
    ( "rejects undeclared identifiers and functions",
      fun () ->
        expect_type_error "int f() { return y; }";
        expect_type_error "int f() { g(); return 0; }" );
    ( "rejects pointer/int mixups",
      fun () ->
        expect_type_error "int f(int *p) { return p + p; }";
        expect_type_error "void f(int *p) { int x; x = p; }" );
    ( "rejects wrong arity calls",
      fun () -> expect_type_error "int g(int x) { return x; } void f() { g(); }" );
    ( "void function cannot return a value",
      fun () -> expect_type_error "void f() { return 1; }" );
    ( "accepts recursion",
      fun () ->
        ignore (check_tc "unsigned fact(unsigned n) { if (n == 0) return 1u; unsigned r; r = fact(n - 1); return n * r; }")
    );
    ( "null pointer constant",
      fun () ->
        ignore (check_tc "struct n { int v; }; int f(struct n *p) { if (p == NULL) return 0; return p->v; }")
    );
    ( "field address",
      fun () ->
        ignore
          (check_tc
             "struct n { int v; }; int g(int *p) { return *p; } \
              void f(struct n *p) { int x; x = g(&p->v); }") );
    ( "source_loc counts non-blank non-comment lines",
      fun () ->
        Alcotest.(check int) "loc" 5 (Tir.source_loc max_c);
        Alcotest.(check int) "loc with comments" 2
          (Tir.source_loc "/* hi\n  there */\nint x;\n\n// c\nint y;\n") );
  ]


(* ------------------------------------------------------------------ *)
(* Front-end goldens.  The front end is trusted, so a faster lexer or
   parser must not move a single token, position, Simpl image or
   diagnostic.  The digests below were recorded before the lexer stopped
   scanning keyword and punctuation lists per token. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Every corpus file, by name, and every [Ac_codegen] profile. *)
let golden_sources () =
  let corpus =
    Sys.readdir Paths.corpus_dir |> Array.to_list
    |> List.filter_map (Filename.chop_suffix_opt ~suffix:".c")
    |> List.sort compare
  in
  List.map (fun name -> (name, read_file (Paths.corpus_file (name ^ ".c")))) corpus
  @ List.map (fun p -> (p.Ac_codegen.p_name, Ac_codegen.generate p)) Ac_codegen.profiles

let show_token = function
  | Lexer.INT_LIT (v, u, ll) ->
    Printf.sprintf "I%s%s%s" (B.to_string v) (if u then "u" else "") (if ll then "ll" else "")
  | Lexer.IDENT s -> "N" ^ s
  | Lexer.KW s -> "K" ^ s
  | Lexer.PUNCT s -> "P" ^ s
  | Lexer.EOF -> "E"

let show_loc_token (t : Lexer.loc_token) =
  Printf.sprintf "%s@%d:%d" (show_token t.tok) t.tpos.line t.tpos.col

let token_digest src =
  let b = Buffer.create 4096 in
  List.iter
    (fun t ->
      Buffer.add_string b (show_loc_token t);
      Buffer.add_char b '\n')
    (Lexer.tokenize src);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Everything [C2simpl.parse] hands downstream: bodies, signatures,
   locals, globals and the per-guard source positions. *)
let simpl_digest src =
  let module Ir = Ac_simpl.Ir in
  let module Ty = Ac_lang.Ty in
  let p = Ac_simpl.C2simpl.parse src in
  let b = Buffer.create 4096 in
  let add s =
    Buffer.add_string b s;
    Buffer.add_char b '\n'
  in
  let vars vs = String.concat "," (List.map (fun (n, t) -> n ^ ":" ^ Ty.to_string t) vs) in
  add ("globals " ^ vars p.Ir.globals);
  List.iter
    (fun (f : Ir.func) ->
      add (Ac_simpl.Print.func_to_string f);
      add ("params " ^ vars f.params);
      add ("locals " ^ vars f.locals);
      add ("ret " ^ Ty.to_string f.ret_ty);
      add (Printf.sprintf "at %d:%d" f.fpos.line f.fpos.col);
      List.iter
        (fun (k, e, (pos : Ast.pos)) ->
          add
            (Printf.sprintf "guard %s %s @%d:%d" (Ir.guard_kind_name k)
               (Ac_lang.Pretty.expr_to_string e) pos.line pos.col))
        f.gsrc)
    p.Ir.funcs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* (source, token-stream digest, Simpl-image digest) *)
let golden_images =
  [
    ("binary_search", "7ce55b4d83142bbe3c92e50f8221a01d", "69ffd5678b2a8a5e8d7298eaf472737a");
    ("call_chain", "8594b6e13a8d4c0b2513c0fe7cd137e1", "787e8917960036d68afdb35990c0d2fd");
    ("clamp_shift", "9d8a1b34a42a68722bdd40e717fa0968", "44c9cdef1b01eaafb7457b40047cd443");
    ("counter", "6112b9818db553dac4212e96a398cc34", "2742836ec3977d4cb29cf9bf8d0c3daf");
    ("div_guarded", "e4bc8303e44f701613d4a00b9b7e7a84", "3ae19374d02b360d56d57b41aafa3c60");
    ("gcd", "6783293d426b00ed2220367c36238a4d", "dd7b57e92114993690040215b69b71ed");
    ("max", "32b7d2232621815e348db13a984910d6", "1a4888309c8690ec09d7b92fe001af55");
    ("memset", "08912f1cac89589c6582ae21fcf7588a", "71c661291a8ac9d188bed0130c325b10");
    ("memset_mixed", "9c166cea0e68bb812f1b3d2aa647af91", "5a48215cb7c1b9b60b448921c709eed8");
    ("mid", "4feebb336580fa2bb696cf1231eb6042", "4db0620bd03df26d502ac7e77afbcd94");
    ("mutual_parity", "4b18c2659db534359393fd9af45af5d0", "5384c59209a2a4dbfba86be99e2dbed4");
    ("odd_divisor", "e121906d8f161d2cf6d896f714b6489e", "7fda2ea9e3f5544a9b29076281c2cc7d");
    ("rec_bound", "3c199ee9932dabed2028c59cbdbb99c9", "5021871c0c2a5b1be474f42cd8f7b30a");
    ("reverse", "ead17f19b0b4320cf0761543466df3ff", "5aa1375dff438b97b5c0ea8f2f57a2a5");
    ("schorr_waite", "d641d9dcf4791b281babeb28f97c46ae", "b5c8a8de3b121cac7cd5b0314efad9fa");
    ("shift_guarded", "7557b808b4614c79eb8cfca8e5433573", "3cacbb130135dd385f7f23f7a833ed96");
    ("suzuki", "44dae6108c0d86dc0ad8df9f926e4261", "7f96fc2823efa5a6b2ca5f2f78ec95e7");
    ("swap", "fa37e21049c5f94a2cd7d93be5085286", "5c209fcbfd6d866c35f90d05ebafaca9");
    ("sel4-like", "ecd097c23e8ccea2cd0db38548195d4d", "85ab6158aef32110aad9e8c33aca6fcc");
    ("capdl-sysinit-like", "4009fc9e342071201fb54a7278e9619e", "ab9d06c58e9374f13c02e028e2747489");
    ("piccolo-like", "3cfadb2ffebfe780e21b4c7c5f8524c8", "2aa78c5a9edd44c46bf356b15792515b");
    ("echronos-like", "bdb10bc7cc9bb6131c8cdcabcbb3e1bc", "bde27d8e7861dbdf1ad71084b07858f9");
  ]

let test_golden_images () =
  let sources = golden_sources () in
  Alcotest.(check (list string)) "every source has a golden" (List.map fst sources)
    (List.map (fun (n, _, _) -> n) golden_images);
  List.iter
    (fun (name, toks, image) ->
      let src = List.assoc name sources in
      Alcotest.(check string) (name ^ " tokens") toks (token_digest src);
      Alcotest.(check string) (name ^ " Simpl image") image (simpl_digest src))
    golden_images

(* What the front end makes of a source: its tokens, then the parse and
   typecheck verdict, or the first diagnostic with its position. *)
let front_end_outcome src =
  let at (pos : Ast.pos) = Printf.sprintf "%d:%d" pos.line pos.col in
  match Lexer.tokenize src with
  | exception Lexer.Lex_error (m, pos) -> "lexical error at " ^ at pos ^ ": " ^ m
  | toks -> (
    let shown =
      String.concat " "
        (List.filter_map
           (fun (t : Lexer.loc_token) ->
             match t.tok with Lexer.INT_LIT _ -> Some (show_token t.tok) | _ -> None)
           toks)
    in
    "literals [" ^ shown ^ "] "
    ^
    match Typecheck.parse_and_check src with
    | _ -> "ok"
    | exception Parser.Parse_error (m, pos) -> "parse error at " ^ at pos ^ ": " ^ m
    | exception Typecheck.Type_error (m, pos) -> "type error at " ^ at pos ^ ": " ^ m)

(* (source, outcome).  Recorded with the image digests above, except the
   integer-literal rows: a leading 0 now reads as octal; 08, a bare 0x
   and a repeated suffix are malformed; and a literal's digits are read
   only until its value passes 2^64.  The unterminated-comment row now
   reports where the comment opens (it read 3:-8, a column computed after
   the comment's own newlines). *)
let golden_diagnostics =
  [
    ("int f() { return 1; }\n/* never\n closed",
     "lexical error at 2:1: unterminated comment");
    ("int f() { return @; }",
     "lexical error at 1:18: unexpected character '@'");
    ("int f() {\n  return 1;\000 }",
     "lexical error at 2:12: unexpected character '\\000'");
    ("int f() { return 12abc; }",
     "lexical error at 1:18: malformed integer literal");
    ("union u { int a; };",
     "literals [] parse error at 1:1: 'union' is not in the supported C subset (paper Sec 2)");
    ("int f() {\n  return 1\n}",
     "literals [I1] parse error at 3:1: expected ';', found '}'");
    ("int f() { int x; x = 1 +; }",
     "literals [I1] parse error at 1:25: expected expression, found ';'");
    ("int f() { return y; }",
     "literals [] type error at 1:18: undeclared identifier y");
    ("float f() { return 1; }",
     "literals [I1] parse error at 1:1: 'float' is not in the supported C subset (paper Sec 2)");
    ("int f() { goto l; }",
     "literals [] parse error at 1:11: 'goto' is not in the supported C subset (paper Sec 2)");
    ("int f() {\n  int x = 1;\n  x = x @ 2;\n  return x;\n}",
     "lexical error at 3:9: unexpected character '@'");
    ("int f() { return 0; }",
     "literals [I0] ok");
    ("int f() { return 0x10; }",
     "literals [I16] ok");
    ("int f() { return 0u; }",
     "literals [I0u] ok");
    ("int f() { return 1ul + 1lu + 1ull + 1llu + 1LL + 1ULL; }",
     "literals [I1u I1u I1ull I1ull I1ll I1ull] ok");
    ("int f() { return 1lL; }",
     "literals [I1ll] ok");
    ("unsigned long long f() { return 0xFFFFFFFFFFFFFFFFull; }",
     "literals [I18446744073709551615ull] ok");
    ("unsigned long long f() { return 18446744073709551615u; }",
     "literals [I18446744073709551615u] ok");
    ("int f() { return 18446744073709551616; }",
     "literals [I18446744073709551616] type error at 1:18: integer literal out of range");
    ("int f() { return 99999999999999999999999999999999; }",
     "literals [I99999999999999999999] type error at 1:18: integer literal out of range");
    ("long long f() { return 99999999999999999999999ll; }",
     "literals [I99999999999999999999ll] type error at 1:24: integer literal out of range");
    ("int f() { return 010; }",
     "literals [I8] ok");
    ("int f() { return 0777 + 00; }",
     "literals [I511 I0] ok");
    ("int f() { return 08; }",
     "lexical error at 1:18: malformed integer literal");
    ("int f() { return 019; }",
     "lexical error at 1:18: malformed integer literal");
    ("int f() { return 0x; }",
     "lexical error at 1:18: malformed integer literal");
    ("int f() { return 0X; }",
     "lexical error at 1:18: malformed integer literal");
    ("int f() { return 1uu; }",
     "lexical error at 1:18: malformed integer literal");
    ("int f() { return 1lul; }",
     "lexical error at 1:18: malformed integer literal");
    ("int f() { return 1lll; }",
     "lexical error at 1:18: malformed integer literal");
    ("int f() { return 1ulu; }",
     "lexical error at 1:18: malformed integer literal");
    ("int f() { return 1Uu; }",
     "lexical error at 1:18: malformed integer literal");
    ("int f() { return 1LLl; }",
     "lexical error at 1:18: malformed integer literal");
    ("int f() { return 0xg; }",
     "lexical error at 1:18: malformed integer literal");
    ("int f() { return 0x1u2; }",
     "lexical error at 1:18: malformed integer literal");
  ]

let test_golden_diagnostics () =
  Alcotest.(check (list (pair string string)))
    "outcomes" golden_diagnostics
    (List.map (fun (src, _) -> (src, front_end_outcome src)) golden_diagnostics)

(* ------------------------------------------------------------------ *)
(* Round trip: printing tokens with random layout and lexing the text
   gives back the tokens, at the positions they were printed at. *)

let puncts =
  [ "<<="; ">>="; "=="; "!="; "<="; ">="; "&&"; "||"; "<<"; ">>"; "->"; "++"; "--";
    "+="; "-="; "*="; "/="; "%="; "&="; "|="; "^="; "+"; "-"; "*"; "/"; "%"; "=";
    "<"; ">"; "!"; "&"; "|"; "^"; "~"; "("; ")"; "{"; "}"; "["; "]"; ";"; ","; ".";
    "?"; ":" ]

(* Adjacent pairs whose spellings would fuse into one token (or start a
   comment) without a separator. *)
let fusing_pairs =
  [ ("<<", "="); ("<", "<="); ("-", ">"); ("-", "-"); ("+", "+"); ("&", "&"); ("|", "|");
    ("=", "="); ("!", "="); (">", ">="); ("/", "/"); ("/", "*"); ("*", "=") ]

let is_word s = Lexer.is_ident_char s.[0]

(* Whether [a] immediately followed by [b] lexes as the two tokens. *)
let glues a b =
  if is_word a then not (Lexer.is_ident_char b.[0])
  else if is_word b then true
  else
    let ab = a ^ b in
    a.[String.length a - 1] <> '/'
    && not
         (List.exists
            (fun p ->
              String.length p > String.length a
              && String.length p <= String.length ab
              && String.sub ab 0 (String.length p) = p)
            puncts)

(* (spelling, token) *)
let gen_token : (string * Lexer.token) QCheck.Gen.t =
  let open QCheck.Gen in
  let keyword = map (fun k -> (k, Lexer.KW k)) (oneofl Lexer.keywords) in
  let punct = map (fun p -> (p, Lexer.PUNCT p)) (oneofl puncts) in
  let ident =
    map2
      (fun c rest ->
        let s = String.make 1 c ^ rest in
        let s = if List.mem s Lexer.keywords then s ^ "_" else s in
        (s, Lexer.IDENT s))
      (oneofl [ 'a'; 'z'; 'A'; 'Q'; '_'; 'i'; 'u'; 'l' ])
      (string_size ~gen:(oneofl [ 'a'; 'x'; 'Z'; '_'; '0'; '9'; 'l'; 'u' ]) (int_bound 6))
  in
  let literal =
    map3
      (fun v spell (sfx, u, ll) ->
        let digits =
          match spell with
          | 0 -> string_of_int v
          | 1 -> Printf.sprintf "0x%x" v
          | 2 -> Printf.sprintf "0X%X" v
          | _ -> Printf.sprintf "0%o" v
        in
        (digits ^ sfx, Lexer.INT_LIT (B.of_int v, u, ll)))
      (oneof [ int_bound 20; int_bound 100_000; map abs int ])
      (int_bound 3)
      (oneofl
         [ ("", false, false); ("u", true, false); ("U", true, false); ("l", false, false);
           ("ul", true, false); ("Lu", true, false); ("ll", false, true); ("LL", false, true);
           ("ull", true, true); ("llu", true, true); ("ULL", true, true) ])
  in
  frequency [ (2, keyword); (4, punct); (3, ident); (2, literal) ]

let gen_tokens : (string * Lexer.token) list QCheck.Gen.t =
  let open QCheck.Gen in
  let pair =
    map (fun (a, b) -> [ (a, Lexer.PUNCT a); (b, Lexer.PUNCT b) ]) (oneofl fusing_pairs)
  in
  map List.concat (list_size (int_bound 40) (frequency [ (6, map (fun t -> [ t ]) gen_token); (1, pair) ]))

let separators =
  [ " "; "  "; "\n"; "\t"; "\r\n"; " /* c */ "; " /* two\nlines * / */ "; " // line\n"; "\n#pragma x\n" ]

(* The text, and each token with the line and column it starts at. *)
let layout (toks : (string * Lexer.token) list) (seps : int list) =
  let b = Buffer.create 256 in
  let line = ref 1 and col = ref 1 in
  let put s =
    String.iter (fun c -> if c = '\n' then (incr line; col := 1) else incr col) s;
    Buffer.add_string b s
  in
  let rec go prev toks seps acc =
    match toks with
    | [] -> List.rev acc
    | (spell, tok) :: rest ->
      let k, seps = match seps with k :: seps -> (k, seps) | [] -> (0, []) in
      (match prev with
      | Some p when k = 0 && glues p spell -> ()
      | _ -> put (List.nth separators (k mod List.length separators)));
      let at = (!line, !col) in
      put spell;
      go (Some spell) rest seps ((tok, at) :: acc)
  in
  let placed = go None toks seps [] in
  (Buffer.contents b, placed)

let prop_round_trip =
  QCheck.Test.make ~name:"printed tokens lex back at their positions" ~count:500
    (QCheck.make
       ~print:(fun (toks, seps) -> String.escaped (fst (layout toks seps)))
       QCheck.Gen.(pair gen_tokens (list_size (int_bound 40) (int_bound 12))))
    (fun (toks, seps) ->
      let text, placed = layout toks seps in
      let lexed = Lexer.tokenize text in
      let lexed, eof =
        match List.rev lexed with
        | { Lexer.tok = Lexer.EOF; _ } :: rest -> (List.rev rest, true)
        | _ -> (lexed, false)
      in
      eof
      && List.map (fun (t : Lexer.loc_token) -> (t.tok, (t.tpos.line, t.tpos.col))) lexed
         = placed)

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    (lexer_tests @ parser_tests @ typecheck_tests
    @ [
        ("token streams and Simpl images match the goldens", test_golden_images);
        ("diagnostics match the goldens", test_golden_diagnostics);
      ])
  @ [ QCheck_alcotest.to_alcotest prop_round_trip ]
