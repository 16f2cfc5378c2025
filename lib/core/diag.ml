module Ast = Ac_cfront.Ast

(* Structured diagnostics for the pipeline's failure model.

   Every phase boundary reports failures as a value of type [t] instead of
   a stringly exception: which phase failed, in which function, where in
   the source (when the front end recorded a position), how severe it is,
   and whether the pipeline degraded past it ([recoverable = true]) or had
   to give the function up.  The driver collects these per function; the
   CLI renders them compiler-style ([file:line:col: severity: ...]) or as
   machine-readable JSON ([--diag-json]).

   The failure model (DESIGN.md "Failure model and degradation ladder"):
   a diagnostic never aborts the translation unit.  In [keep_going] mode
   the function that produced it falls back to its last certified level
   (WA -> HL -> L2 -> L1 -> Simpl); in fail-fast mode the driver raises
   [Error] carrying the same structured value, so even fatal paths present
   one uniform shape to callers. *)

type phase =
  | Parse
  | Typecheck
  | Simpl
  | L1
  | L2
  | Polish
  | Guard_discharge
  | Heap_abs
  | Word_abs
  | Chain
  | Check
  | Budget
  | Store

type severity = Error | Warning | Note

type t = {
  d_phase : phase;
  d_func : string option;  (* None: a unit-level diagnostic *)
  d_pos : Ast.pos option;
  d_severity : severity;
  d_recoverable : bool;  (* did the pipeline degrade and continue? *)
  d_msg : string;
}

exception Error of t

let make ?func ?pos ?(severity : severity = Error) ?(recoverable = false) phase msg =
  { d_phase = phase; d_func = func; d_pos = pos; d_severity = severity;
    d_recoverable = recoverable; d_msg = msg }

let phase_name = function
  | Parse -> "parse"
  | Typecheck -> "typecheck"
  | Simpl -> "simpl"
  | L1 -> "l1"
  | L2 -> "l2"
  | Polish -> "polish"
  | Guard_discharge -> "guard-discharge"
  | Heap_abs -> "heap-abstraction"
  | Word_abs -> "word-abstraction"
  | Chain -> "chain"
  | Check -> "check"
  | Budget -> "budget"
  | Store -> "store"

let severity_name (s : severity) =
  match s with Error -> "error" | Warning -> "warning" | Note -> "note"

(* Classify an arbitrary exception escaping a phase.  Structured phase
   exceptions keep their message; anything else is a tagged internal error
   (an invariant violation, not a property of the input). *)
let message_of_exn (e : exn) : string =
  match e with
  | Ac_kernel.Thm.Kernel_error m -> m
  | Ac_kernel.Lift.Lift_failure m -> "local-variable lifting: " ^ m
  | Invalid_argument m | Failure m -> "internal error: " ^ m
  | Stack_overflow -> "internal error: stack overflow (diverging rewrite?)"
  | Out_of_memory -> "internal error: out of memory"
  | e -> "internal error: " ^ Printexc.to_string e

(* A front-end error (lexical, parse or type) rendered the way compilers
   do, [file:line:col: parse error: msg]; [None] for any other exception.
   The one rendering of the CLI's stderr line and serve's error text. *)
let frontend_error ~file (e : exn) : string option =
  let at kind m (p : Ast.pos) =
    Some (Printf.sprintf "%s:%d:%d: %s error: %s" file p.Ast.line p.Ast.col kind m)
  in
  match e with
  | Ac_cfront.Lexer.Lex_error (m, p) -> at "lexical" m p
  | Ac_cfront.Parser.Parse_error (m, p) -> at "parse" m p
  | Ac_cfront.Typecheck.Type_error (m, p) -> at "type" m p
  | _ -> None

let to_string ?file (d : t) : string =
  let where =
    match (file, d.d_pos) with
    | Some f, Some p -> Printf.sprintf "%s:%d:%d: " f p.Ast.line p.Ast.col
    | Some f, None -> f ^ ": "
    | None, Some p -> Printf.sprintf "%d:%d: " p.Ast.line p.Ast.col
    | None, None -> ""
  in
  let ctx = match d.d_func with Some f -> Printf.sprintf " (in %s)" f | None -> "" in
  Printf.sprintf "%s%s: [%s] %s%s%s" where (severity_name d.d_severity)
    (phase_name d.d_phase) d.d_msg ctx
    (if d.d_recoverable then " [degraded]" else "")

(* ------------------------------------------------------------------ *)
(* JSON rendering, dependency-free. *)

let json_escape (s : string) : string =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json (d : t) : string =
  let fields =
    [ Some (Printf.sprintf "\"phase\":\"%s\"" (phase_name d.d_phase));
      Option.map (fun f -> Printf.sprintf "\"function\":\"%s\"" (json_escape f)) d.d_func;
      Option.map
        (fun (p : Ast.pos) -> Printf.sprintf "\"line\":%d,\"col\":%d" p.Ast.line p.Ast.col)
        d.d_pos;
      Some (Printf.sprintf "\"severity\":\"%s\"" (severity_name d.d_severity));
      Some (Printf.sprintf "\"recoverable\":%b" d.d_recoverable);
      Some (Printf.sprintf "\"message\":\"%s\"" (json_escape d.d_msg)) ]
  in
  "{" ^ String.concat "," (List.filter_map Fun.id fields) ^ "}"

let list_to_json (ds : t list) : string =
  "[" ^ String.concat "," (List.map to_json ds) ^ "]"
