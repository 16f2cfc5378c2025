(* Recursive-descent parser for the C subset, with precedence climbing for
   expressions.  Mirrors the conservative front end of Norrish's parser:
   syntax the subset excludes is rejected with a position-carrying error. *)

open Ast
module B = Ac_bignum

exception Parse_error of string * pos

type state = { toks : Lexer.loc_token array; mutable cur : int }

let error_at pos fmt = Format.kasprintf (fun m -> raise (Parse_error (m, pos))) fmt

let peek st = st.toks.(st.cur).tok
let peek2 st = if st.cur + 1 < Array.length st.toks then st.toks.(st.cur + 1).tok else Lexer.EOF
let pos_of st = st.toks.(st.cur).tpos
let advance st = st.cur <- min (st.cur + 1) (Array.length st.toks - 1)

let error st fmt = error_at (pos_of st) fmt

let expect_punct st s =
  match peek st with
  | Lexer.PUNCT p when String.equal p s -> advance st
  | t -> error st "expected '%s', found '%s'" s (Lexer.token_to_string t)

let expect_kw st s =
  match peek st with
  | Lexer.KW k when String.equal k s -> advance st
  | t -> error st "expected '%s', found '%s'" s (Lexer.token_to_string t)

let accept_punct st s =
  match peek st with
  | Lexer.PUNCT p when String.equal p s ->
    advance st;
    true
  | _ -> false

let accept_kw st s =
  match peek st with
  | Lexer.KW k when String.equal k s ->
    advance st;
    true
  | _ -> false

let expect_ident st =
  match peek st with
  | Lexer.IDENT name ->
    advance st;
    name
  | t -> error st "expected identifier, found '%s'" (Lexer.token_to_string t)

(* ------------------------------------------------------------------ *)
(* Types.  A starting type keyword sequence followed by '*'s. *)

(* The type a single keyword names on its own, if any. *)
let fixed_width_type = function
  | "uint8_t" -> Some (Integer (Unsigned, W8))
  | "uint16_t" -> Some (Integer (Unsigned, W16))
  | "uint32_t" -> Some (Integer (Unsigned, W32))
  | "uint64_t" -> Some (Integer (Unsigned, W64))
  | "int8_t" -> Some (Integer (Signed, W8))
  | "int16_t" -> Some (Integer (Signed, W16))
  | "int32_t" -> Some (Integer (Signed, W32))
  | "int64_t" -> Some (Integer (Signed, W64))
  | "word_t" -> Some (Integer (Unsigned, W32))
  | "bool" | "_Bool" -> Some Bool
  | "void" -> Some Void
  | _ -> None

let is_type_start = function
  | Lexer.KW ("int" | "unsigned" | "signed" | "char" | "short" | "long" | "struct" | "const") ->
    true
  | Lexer.KW k -> fixed_width_type k <> None
  | _ -> false

let starts_type st = is_type_start (peek st)

(* Parse a base type: handles the multi-word integer type names of C.  The
   architecture is ILP32 (paper: "matches a two's-complement 32-bit system"),
   so long = 32 bits and long long = 64 bits. *)
let parse_base_type st =
  while accept_kw st "const" do () done;
  let t =
    match peek st with
    | Lexer.KW "struct" ->
      advance st;
      let name = expect_ident st in
      StructRef name
    | Lexer.KW ("int" | "unsigned" | "signed" | "char" | "short" | "long") ->
      (* Collect the keyword run and classify it. *)
      let rec collect acc =
        match peek st with
        | Lexer.KW (("int" | "unsigned" | "signed" | "char" | "short" | "long") as k) ->
          advance st;
          collect (k :: acc)
        | _ -> List.rev acc
      in
      let kws = collect [] in
      let sign = if List.mem "unsigned" kws then Ty.Unsigned else Ty.Signed in
      let longs = List.length (List.filter (String.equal "long") kws) in
      let width =
        if List.mem "char" kws then Ty.W8
        else if List.mem "short" kws then Ty.W16
        else if longs >= 2 then Ty.W64
        else Ty.W32
      in
      Integer (sign, width)
    | Lexer.KW (("union" | "float" | "double") as kw) ->
      error st "'%s' is not in the supported C subset (paper Sec 2)" kw
    | Lexer.KW k when fixed_width_type k <> None ->
      advance st;
      Option.get (fixed_width_type k)
    | t -> error st "expected type, found '%s'" (Lexer.token_to_string t)
  in
  while accept_kw st "const" do () done;
  t

let parse_type st =
  let base = parse_base_type st in
  let rec stars t = if accept_punct st "*" then stars (Pointer t) else t in
  let t = stars base in
  while accept_kw st "const" do () done;
  let rec stars2 t = if accept_punct st "*" then stars2 (Pointer t) else t in
  stars2 t

(* ------------------------------------------------------------------ *)
(* Expressions: precedence climbing. *)

(* A binary operator's constructor and precedence. *)
let binop = function
  | "*" -> Some (Bmul, 13)
  | "/" -> Some (Bdiv, 13)
  | "%" -> Some (Bmod, 13)
  | "+" -> Some (Badd, 12)
  | "-" -> Some (Bsub, 12)
  | "<<" -> Some (Bshl, 11)
  | ">>" -> Some (Bshr, 11)
  | "<" -> Some (Blt, 10)
  | "<=" -> Some (Ble, 10)
  | ">" -> Some (Bgt, 10)
  | ">=" -> Some (Bge, 10)
  | "==" -> Some (Beq, 9)
  | "!=" -> Some (Bne, 9)
  | "&" -> Some (Bband, 8)
  | "^" -> Some (Bbxor, 7)
  | "|" -> Some (Bbor, 6)
  | "&&" -> Some (Bland, 5)
  | "||" -> Some (Blor, 4)
  | _ -> None

let rec parse_expr st = parse_assignment st

and parse_assignment st =
  let lhs = parse_conditional st in
  let pos = pos_of st in
  let compound op =
    advance st;
    let rhs = parse_assignment st in
    { desc = Assign (lhs, { desc = Binop (op, lhs, rhs); pos }); pos }
  in
  match peek st with
  | Lexer.PUNCT "=" ->
    advance st;
    let rhs = parse_assignment st in
    { desc = Assign (lhs, rhs); pos }
  | Lexer.PUNCT "+=" -> compound Badd
  | Lexer.PUNCT "-=" -> compound Bsub
  | Lexer.PUNCT "*=" -> compound Bmul
  | Lexer.PUNCT "/=" -> compound Bdiv
  | Lexer.PUNCT "%=" -> compound Bmod
  | Lexer.PUNCT "&=" -> compound Bband
  | Lexer.PUNCT "|=" -> compound Bbor
  | Lexer.PUNCT "^=" -> compound Bbxor
  | Lexer.PUNCT "<<=" -> compound Bshl
  | Lexer.PUNCT ">>=" -> compound Bshr
  | _ -> lhs

and parse_conditional st =
  let c = parse_binary st 0 in
  if accept_punct st "?" then begin
    let pos = pos_of st in
    let a = parse_expr st in
    expect_punct st ":";
    let b = parse_conditional st in
    { desc = Cond (c, a, b); pos }
  end
  else c

(* Precedence climbing: a unary operand, then every binary operator that
   binds at least as tightly as [min_prec], each taking a right operand
   that binds strictly tighter (so all operators associate left). *)
and parse_binary st min_prec =
  let rec loop lhs =
    match peek st with
    | Lexer.PUNCT p -> (
      match binop p with
      | Some (op, prec) when prec >= min_prec ->
        let pos = pos_of st in
        advance st;
        let rhs = parse_binary st (prec + 1) in
        loop { desc = Binop (op, lhs, rhs); pos }
      | _ -> lhs)
    | _ -> lhs
  in
  loop (parse_unary st)

and parse_unary st =
  let pos = pos_of st in
  match peek st with
  | Lexer.PUNCT "-" ->
    advance st;
    { desc = Unop (Uneg, parse_unary st); pos }
  | Lexer.PUNCT "+" ->
    advance st;
    parse_unary st
  | Lexer.PUNCT "~" ->
    advance st;
    { desc = Unop (Ubnot, parse_unary st); pos }
  | Lexer.PUNCT "!" ->
    advance st;
    { desc = Unop (Ulnot, parse_unary st); pos }
  | Lexer.PUNCT "*" ->
    advance st;
    { desc = Deref (parse_unary st); pos }
  | Lexer.PUNCT "&" ->
    advance st;
    { desc = AddrOf (parse_unary st); pos }
  | Lexer.PUNCT "++" ->
    advance st;
    let e = parse_unary st in
    { desc = Assign (e, { desc = Binop (Badd, e, { desc = Const B.one; pos }); pos }); pos }
  | Lexer.PUNCT "--" ->
    advance st;
    let e = parse_unary st in
    { desc = Assign (e, { desc = Binop (Bsub, e, { desc = Const B.one; pos }); pos }); pos }
  | Lexer.KW "sizeof" ->
    advance st;
    if accept_punct st "(" then begin
      if starts_type st then begin
        let t = parse_type st in
        expect_punct st ")";
        { desc = SizeofType t; pos }
      end
      else begin
        let e = parse_expr st in
        expect_punct st ")";
        { desc = SizeofExpr e; pos }
      end
    end
    else { desc = SizeofExpr (parse_unary st); pos }
  | Lexer.PUNCT "(" when starts_type_after_paren st ->
    advance st;
    let t = parse_type st in
    expect_punct st ")";
    { desc = Cast (t, parse_unary st); pos }
  | _ -> parse_postfix st

and starts_type_after_paren st =
  (* lookahead: '(' followed by a type keyword *)
  is_type_start (peek2 st)

and parse_postfix st =
  let e = parse_primary st in
  let rec loop e =
    let pos = pos_of st in
    match peek st with
    | Lexer.PUNCT "." ->
      advance st;
      loop { desc = Field (e, expect_ident st); pos }
    | Lexer.PUNCT "->" ->
      advance st;
      loop { desc = Arrow (e, expect_ident st); pos }
    | Lexer.PUNCT "[" ->
      advance st;
      let idx = parse_expr st in
      expect_punct st "]";
      loop { desc = Index (e, idx); pos }
    | Lexer.PUNCT "++" ->
      (* Post-increment is only supported as a statement; desugared there. *)
      advance st;
      loop
        {
          desc = Assign (e, { desc = Binop (Badd, e, { desc = Const B.one; pos }); pos });
          pos;
        }
    | Lexer.PUNCT "--" ->
      advance st;
      loop
        {
          desc = Assign (e, { desc = Binop (Bsub, e, { desc = Const B.one; pos }); pos });
          pos;
        }
    | _ -> e
  in
  loop e

and parse_primary st =
  let pos = pos_of st in
  match peek st with
  | Lexer.INT_LIT (v, _, _) ->
    advance st;
    { desc = Const v; pos }
  | Lexer.KW "NULL" ->
    advance st;
    { desc = Const B.zero; pos }
  | Lexer.IDENT name -> (
    advance st;
    match peek st with
    | Lexer.PUNCT "(" ->
      advance st;
      let args = parse_args st in
      { desc = Call (name, args); pos }
    | _ -> { desc = Ident name; pos })
  | Lexer.PUNCT "(" ->
    advance st;
    let e = parse_expr st in
    expect_punct st ")";
    e
  | t -> error st "expected expression, found '%s'" (Lexer.token_to_string t)

and parse_args st =
  if accept_punct st ")" then []
  else begin
    let rec loop acc =
      let e = parse_expr st in
      if accept_punct st "," then loop (e :: acc)
      else begin
        expect_punct st ")";
        List.rev (e :: acc)
      end
    in
    loop []
  end

(* ------------------------------------------------------------------ *)
(* Statements. *)

let rec parse_stmt st : stmt =
  let spos = pos_of st in
  match peek st with
  | Lexer.KW (("goto" | "switch" | "case" | "default") as kw) ->
    error st "'%s' is not in the supported C subset (paper Sec 2)" kw
  | Lexer.PUNCT ";" ->
    advance st;
    { sdesc = Sskip; spos }
  | Lexer.PUNCT "{" -> { sdesc = Sblock (parse_block st); spos }
  | Lexer.KW "if" ->
    advance st;
    expect_punct st "(";
    let c = parse_expr st in
    expect_punct st ")";
    let then_s = parse_stmt st in
    let else_s =
      if accept_kw st "else" then parse_stmt st else { sdesc = Sskip; spos }
    in
    { sdesc = Sif (c, then_s, else_s); spos }
  | Lexer.KW "while" ->
    advance st;
    expect_punct st "(";
    let c = parse_expr st in
    expect_punct st ")";
    { sdesc = Swhile (c, parse_stmt st); spos }
  | Lexer.KW "do" ->
    advance st;
    let body = parse_stmt st in
    expect_kw st "while";
    expect_punct st "(";
    let c = parse_expr st in
    expect_punct st ")";
    expect_punct st ";";
    { sdesc = Sdo (body, c); spos }
  | Lexer.KW "for" ->
    advance st;
    expect_punct st "(";
    let init =
      if accept_punct st ";" then None
      else begin
        let s =
          if starts_type st then parse_decl_stmt st
          else begin
            let e = parse_expr st in
            expect_punct st ";";
            { sdesc = Sexpr e; spos }
          end
        in
        Some s
      end
    in
    let cond = if accept_punct st ";" then None
      else begin
        let e = parse_expr st in
        expect_punct st ";";
        Some e
      end
    in
    let step =
      if accept_punct st ")" then None
      else begin
        let e = parse_expr st in
        expect_punct st ")";
        Some { sdesc = Sexpr e; spos }
      end
    in
    { sdesc = Sfor (init, cond, step, parse_stmt st); spos }
  | Lexer.KW "break" ->
    advance st;
    expect_punct st ";";
    { sdesc = Sbreak; spos }
  | Lexer.KW "continue" ->
    advance st;
    expect_punct st ";";
    { sdesc = Scontinue; spos }
  | Lexer.KW "return" ->
    advance st;
    if accept_punct st ";" then { sdesc = Sreturn None; spos }
    else begin
      let e = parse_expr st in
      expect_punct st ";";
      { sdesc = Sreturn (Some e); spos }
    end
  | _ when starts_type st -> parse_decl_stmt st
  | _ ->
    let e = parse_expr st in
    expect_punct st ";";
    { sdesc = Sexpr e; spos }

and parse_decl_stmt st : stmt =
  match parse_decl_group st with
  | [ s ] -> s
  | group ->
    (* A multi-declarator declaration in single-statement position; the
       grouping block is harmless because nothing follows it there. *)
    { sdesc = Sblock group; spos = (List.hd group).spos }

(* One declaration with possibly several declarators:
   struct node *t = root, *p = NULL, *q; *)
and parse_decl_group st : stmt list =
  let spos = pos_of st in
  let base = parse_base_type st in
  let rec declarators acc =
    let rec stars t = if accept_punct st "*" then stars (Pointer t) else t in
    let t = stars base in
    let name = expect_ident st in
    let init = if accept_punct st "=" then Some (parse_expr st) else None in
    let decl = { sdesc = Sdecl (t, name, init); spos } in
    if accept_punct st "," then declarators (decl :: acc)
    else begin
      expect_punct st ";";
      List.rev (decl :: acc)
    end
  in
  declarators []

and parse_block st : stmt list =
  expect_punct st "{";
  let rec loop acc =
    if accept_punct st "}" then List.rev acc
    else if starts_type st then loop (List.rev_append (parse_decl_group st) acc)
    else loop (parse_stmt st :: acc)
  in
  loop []

(* ------------------------------------------------------------------ *)
(* Top level: struct declarations, globals, functions. *)

let parse_struct_decl st : struct_decl =
  let stpos = pos_of st in
  expect_kw st "struct";
  let stname = expect_ident st in
  expect_punct st "{";
  let rec fields acc =
    if accept_punct st "}" then List.rev acc
    else begin
      let t = parse_type st in
      let name = expect_ident st in
      expect_punct st ";";
      fields ((t, name) :: acc)
    end
  in
  let stfields = fields [] in
  expect_punct st ";";
  { stname; stfields; stpos }

let parse_top st : decl =
  while accept_kw st "static" || accept_kw st "inline" do () done;
  match (peek st, peek2 st) with
  | Lexer.KW "struct", Lexer.IDENT _ when (match st.toks.(st.cur + 2).tok with
      | Lexer.PUNCT "{" -> true
      | _ -> false) ->
    Dstruct (parse_struct_decl st)
  | _ ->
    let gpos = pos_of st in
    let t = parse_type st in
    let name = expect_ident st in
    if accept_punct st "(" then begin
      (* function definition *)
      let params =
        if accept_punct st ")" then []
        else begin
          let rec loop acc =
            if accept_kw st "void" && (match peek st with Lexer.PUNCT ")" -> true | _ -> false)
            then begin
              expect_punct st ")";
              List.rev acc
            end
            else begin
              let pt = parse_type st in
              let pn = expect_ident st in
              if accept_punct st "," then loop ((pt, pn) :: acc)
              else begin
                expect_punct st ")";
                List.rev ((pt, pn) :: acc)
              end
            end
          in
          loop []
        end
      in
      let body = parse_block st in
      Dfunc { fname = name; fret = t; fparams = params; fbody = body; fpos = gpos }
    end
    else begin
      let init = if accept_punct st "=" then Some (parse_expr st) else None in
      expect_punct st ";";
      Dglobal { gname = name; gtype = t; ginit = init; gpos }
    end

let parse_program (src : string) : program =
  let toks = Lexer.tokens src in
  let st = { toks; cur = 0 } in
  let rec loop acc =
    match peek st with
    | Lexer.EOF -> List.rev acc
    | _ -> loop (parse_top st :: acc)
  in
  loop []
