(* Run the CLI built next to the running test, with [env] on top of this
   process's environment minus every BV_* variable, and with the DAG
   store off unless [env] sets BV_CACHE. Shared by the suites that check
   the CLI's exit codes, messages and reports. *)

let exe () =
  let exe =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "../bin/vanguard_cli.exe"
  in
  if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe
  else exe

let environment env =
  let inherited =
    List.filter
      (fun kv -> not (String.starts_with ~prefix:"BV_" kv))
      (Array.to_list (Unix.environment ()))
  in
  (* the first binding of a variable is the one a lookup finds *)
  Array.of_list (env @ ("BV_CACHE=none" :: inherited))

(* [start ()] from the directory [cwd]: a process it starts runs there. *)
let in_dir cwd start =
  let here = Sys.getcwd () in
  Sys.chdir cwd;
  Fun.protect ~finally:(fun () -> Sys.chdir here) start

(* Exit code, stdout and stderr of a run from [cwd]. *)
let run ?(cwd = Sys.getcwd ()) ~env args =
  let exe = exe () in
  let ((out, _, err) as proc) =
    in_dir cwd (fun () ->
        Unix.open_process_args_full exe
          (Array.of_list (exe :: args))
          (environment env))
  in
  let stdout = In_channel.input_all out in
  let stderr = In_channel.input_all err in
  match Unix.close_process_full proc with
  | Unix.WEXITED code -> (code, stdout, stderr)
  | _ -> (-1, stdout, stderr)

(* [run] from [cwd] with stdout on the file [stdout]: exit code and
   stderr. *)
let run_redirected ?(cwd = Sys.getcwd ()) ~stdout ~env args =
  let exe = exe () in
  let out =
    Unix.openfile stdout [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let pid =
    in_dir cwd (fun () ->
        Unix.create_process_env exe
          (Array.of_list (exe :: args))
          (environment env) Unix.stdin out err_w)
  in
  Unix.close out;
  Unix.close err_w;
  let ic = Unix.in_channel_of_descr err_r in
  let stderr = In_channel.input_all ic in
  In_channel.close ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> (code, stderr)
  | _ -> (-1, stderr)
