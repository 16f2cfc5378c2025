(* Hand-written lexer for the C subset.  Produces a token array with
   positions; the recursive-descent parser indexes into it.  Every token
   costs constant work: keywords come from a table and punctuation from a
   character match, both as shared values, and only identifiers and
   numbers copy their spelling out of the source. *)

module B = Ac_bignum

type token =
  | INT_LIT of B.t * bool * bool (* value, unsigned suffix, long-long suffix *)
  | IDENT of string
  | KW of string (* keyword, canonical spelling *)
  | PUNCT of string (* operator or punctuation, canonical spelling *)
  | EOF

type loc_token = { tok : token; tpos : Ast.pos }

exception Lex_error of string * Ast.pos

let keywords =
  [
    "int"; "unsigned"; "signed"; "char"; "short"; "long"; "void"; "struct";
    "if"; "else"; "while"; "do"; "for"; "return"; "break"; "continue";
    "sizeof"; "NULL"; "_Bool"; "const"; "typedef"; "static"; "inline";
    "uint8_t"; "uint16_t"; "uint32_t"; "uint64_t";
    "int8_t"; "int16_t"; "int32_t"; "int64_t"; "word_t"; "bool";
    (* recognised so the parser can reject them with a clear message *)
    "goto"; "switch"; "case"; "default"; "union"; "float"; "double";
  ]

(* Keyword spelling -> its token, built once and only read afterwards. *)
let keyword_tokens : (string, token) Hashtbl.t =
  let t = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace t k (KW k)) keywords;
  t

(* The punctuation token starting at [src.[i]], longest match first, or
   [None].  The tokens are constants: every occurrence shares one value. *)
let punct_at src i =
  let next k = if i + k < String.length src then src.[i + k] else '\000' in
  match (src.[i], next 1) with
  | '<', '<' -> Some (if next 2 = '=' then PUNCT "<<=" else PUNCT "<<")
  | '>', '>' -> Some (if next 2 = '=' then PUNCT ">>=" else PUNCT ">>")
  | '=', '=' -> Some (PUNCT "==")
  | '!', '=' -> Some (PUNCT "!=")
  | '<', '=' -> Some (PUNCT "<=")
  | '>', '=' -> Some (PUNCT ">=")
  | '&', '&' -> Some (PUNCT "&&")
  | '|', '|' -> Some (PUNCT "||")
  | '-', '>' -> Some (PUNCT "->")
  | '+', '+' -> Some (PUNCT "++")
  | '-', '-' -> Some (PUNCT "--")
  | '+', '=' -> Some (PUNCT "+=")
  | '-', '=' -> Some (PUNCT "-=")
  | '*', '=' -> Some (PUNCT "*=")
  | '/', '=' -> Some (PUNCT "/=")
  | '%', '=' -> Some (PUNCT "%=")
  | '&', '=' -> Some (PUNCT "&=")
  | '|', '=' -> Some (PUNCT "|=")
  | '^', '=' -> Some (PUNCT "^=")
  | '+', _ -> Some (PUNCT "+")
  | '-', _ -> Some (PUNCT "-")
  | '*', _ -> Some (PUNCT "*")
  | '/', _ -> Some (PUNCT "/")
  | '%', _ -> Some (PUNCT "%")
  | '=', _ -> Some (PUNCT "=")
  | '<', _ -> Some (PUNCT "<")
  | '>', _ -> Some (PUNCT ">")
  | '!', _ -> Some (PUNCT "!")
  | '&', _ -> Some (PUNCT "&")
  | '|', _ -> Some (PUNCT "|")
  | '^', _ -> Some (PUNCT "^")
  | '~', _ -> Some (PUNCT "~")
  | '(', _ -> Some (PUNCT "(")
  | ')', _ -> Some (PUNCT ")")
  | '{', _ -> Some (PUNCT "{")
  | '}', _ -> Some (PUNCT "}")
  | '[', _ -> Some (PUNCT "[")
  | ']', _ -> Some (PUNCT "]")
  | ';', _ -> Some (PUNCT ";")
  | ',', _ -> Some (PUNCT ",")
  | '.', _ -> Some (PUNCT ".")
  | '?', _ -> Some (PUNCT "?")
  | ':', _ -> Some (PUNCT ":")
  | _ -> None

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'
let is_hex_digit c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let digit_value c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | _ -> Char.code c - Char.code 'A' + 10

let two_pow_64 = B.pow2 64

(* The value of the digits [src.[i..j)] in [base].  Reading stops once the
   value reaches 2^64: such a literal is out of range at every type, which
   the typechecker reports, and reading on would cost a bignum multiply
   per digit. *)
let literal_value src i j base =
  let b = B.of_int base in
  let rec go k v =
    if k = j || B.ge v two_pow_64 then v
    else go (k + 1) (B.add (B.mul v b) (B.of_int (digit_value src.[k])))
  in
  go i B.zero

let tokens (src : string) : loc_token array =
  let n = String.length src in
  let line = ref 1 and bol = ref 0 in
  let pos i : Ast.pos = { line = !line; col = i - !bol + 1 } in
  let error i msg = raise (Lex_error (msg, pos i)) in
  (* Tokens go straight into the array the parser indexes.  Real sources
     average nearly three bytes a token, so half a token per byte rarely
     needs [emit] to grow the array. *)
  let unused = { tok = EOF; tpos = Ast.no_pos } in
  let toks = ref (Array.make ((n / 2) + 16) unused) in
  let count = ref 0 in
  let emit i tok =
    if !count = Array.length !toks then begin
      let bigger = Array.make (2 * !count) unused in
      Array.blit !toks 0 bigger 0 !count;
      toks := bigger
    end;
    !toks.(!count) <- { tok; tpos = pos i };
    incr count
  in
  let i = ref 0 in
  let newline at = incr line; bol := at + 1 in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin
      newline !i;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '/' then begin
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '*' then begin
      (* The comment's own newlines move [line] and [bol]: take its position
         before skipping. *)
      let start = pos !i in
      i := !i + 2;
      let rec skip () =
        if !i + 1 >= n then raise (Lex_error ("unterminated comment", start))
        else if src.[!i] = '*' && src.[!i + 1] = '/' then i := !i + 2
        else begin
          if src.[!i] = '\n' then newline !i;
          incr i;
          skip ()
        end
      in
      skip ()
    end
    else if c = '#' then begin
      (* Preprocessor lines (e.g. #include) are ignored: inputs are assumed
         to be pre-expanded, matching the C-parser pipeline. *)
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if is_digit c then begin
      (* C99 6.4.4.1: decimal, octal (leading 0) or hex (0x), then at most
         one u/U and at most one l/L or ll/LL, in either order. *)
      let start = !i in
      let malformed () = error start "malformed integer literal" in
      let base =
        if c <> '0' then 10
        else if !i + 1 < n && (src.[!i + 1] = 'x' || src.[!i + 1] = 'X') then 16
        else 8
      in
      if base = 16 then i := !i + 2;
      let first = !i in
      let digit_ok = if base = 16 then is_hex_digit else is_digit in
      while !i < n && digit_ok src.[!i] do incr i done;
      let last = !i in
      if base = 16 && first = last then malformed ();
      if base = 8 then
        for k = first to last - 1 do
          if src.[k] > '7' then malformed ()
        done;
      let unsigned = ref false and long = ref false and longlong = ref false in
      let rec suffix () =
        if !i < n then
          match src.[!i] with
          | 'u' | 'U' ->
            if !unsigned then malformed ();
            unsigned := true;
            incr i;
            suffix ()
          | 'l' | 'L' ->
            if !long then malformed ();
            long := true;
            if !i + 1 < n && (src.[!i + 1] = 'l' || src.[!i + 1] = 'L') then begin
              longlong := true;
              i := !i + 2
            end
            else incr i;
            suffix ()
          | _ -> ()
      in
      suffix ();
      if !i < n && is_ident_char src.[!i] then malformed ();
      emit start (INT_LIT (literal_value src first last base, !unsigned, !longlong))
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do incr i done;
      let name = String.sub src start (!i - start) in
      match Hashtbl.find_opt keyword_tokens name with
      | Some kw -> emit start kw
      | None -> emit start (IDENT name)
    end
    else
      match punct_at src !i with
      | Some (PUNCT p as tok) ->
        emit !i tok;
        i := !i + String.length p
      | _ -> error !i (Printf.sprintf "unexpected character %C" c)
  done;
  emit (n - 1) EOF;
  Array.sub !toks 0 !count

let tokenize (src : string) : loc_token list = Array.to_list (tokens src)

let token_to_string = function
  | INT_LIT (v, u, ll) ->
    B.to_string v ^ (if u then "u" else "") ^ if ll then "ll" else ""
  | IDENT s -> s
  | KW s -> s
  | PUNCT s -> s
  | EOF -> "<eof>"
