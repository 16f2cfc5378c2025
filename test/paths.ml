(* Where the test binary finds its inputs: beside itself in the build tree
   (_build/default/test/main.exe), never relative to the working
   directory, so the suite runs the same under `dune runtest` (cwd
   _build/default/test) and `dune exec test/main.exe` (cwd the repo root). *)

(* _build/default *)
let build_root = Filename.dirname (Filename.dirname Sys.executable_name)

let acc_exe = Filename.concat build_root "bin/acc.exe"

(* `dune runtest` copies the corpus into the build tree; a bare `dune
   build` does not, so fall back to the source tree two levels up. *)
let corpus_dir =
  let built = Filename.concat build_root "corpus" in
  if Sys.file_exists built then built
  else Filename.concat (Filename.dirname (Filename.dirname build_root)) "corpus"

let corpus_file name = Filename.concat corpus_dir name
