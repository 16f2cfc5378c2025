(* Mixing byte-level and lifted code (paper Sec 4.6).

     dune exec examples/mixed_memset.exe

   Heap abstraction requires type-safe memory use, but C programs sometimes
   need byte-level access (memset, memcpy, allocators).  The paper's answer:
   leave such functions in the low-level model and call them from lifted
   code through exec_concrete.  This example keeps my_memset byte-level,
   lifts its caller, and executes the mixed program. *)

module Ty = Ac_lang.Ty
module Value = Ac_lang.Value
module Driver = Autocorres.Driver

let () =
  print_endline "=== mixed byte-level / lifted code ===";
  Printf.printf "C source:\n%s\n" Ac_cases.Csources.memset_mixed_c;
  let options =
    {
      Driver.default_options with
      overrides = [ ("my_memset", { Driver.default_func_options with Driver.word_abs = false; heap_abs = false }) ];
    }
  in
  let res = Driver.run ~options Ac_cases.Csources.memset_mixed_c in
  let show name =
    match Driver.find_result res name with
    | Some fr ->
      Printf.printf "%s:\n%s\n" name (Ac_monad.Mprint.func_to_string fr.Driver.fr_final)
    | None -> ()
  in
  show "my_memset";
  show "zero_cell";
  (* Execute the mixed program on a real heap. *)
  let lenv = res.Driver.final_prog.Ac_monad.M.lenv in
  let u32 = Ty.Cword (Ty.Unsigned, Ty.W32) in
  let addr, h = Ac_simpl.Heap.alloc lenv Ac_simpl.Heap.empty u32 in
  let h =
    Ac_simpl.Heap.write_obj lenv h u32 addr
      (Value.vword Ty.Unsigned (Ac_word.of_int Ac_word.W32 0xDEADBEEF))
  in
  let state = Ac_simpl.State.with_heap Ac_simpl.State.empty h in
  (match
     Ac_monad.Interp.run_func res.Driver.final_prog ~fuel:10_000 state "zero_cell"
       [ Value.vptr addr u32 ]
   with
  | Ac_monad.Interp.Returns (v, _) ->
    Printf.printf "zero_cell on a cell holding 0xDEADBEEF returned: %s\n"
      (Value.to_string v)
  | _ -> print_endline "execution failed");
  print_endline
    "\nThe paper's Sec 4.6 triple —\n\
    \  {is_valid_w32 s p} exec_concrete (memset' p 0 4) {s[p] = 0}\n\
     — is provable once, by low-level reasoning, and from then on lifted\n\
     callers reason only about the abstract effect."
