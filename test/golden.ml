(* Golden files under test/goldens/. With BV_GOLDEN_DIR set, [check]
   writes [got] to that directory instead of comparing: regenerate only
   after an intentional change, e.g.

     BV_GOLDEN_DIR=test/goldens dune exec test/test_goldens.exe

   from the repository root. *)

let check ~file ~what got =
  match Sys.getenv_opt "BV_GOLDEN_DIR" with
  | Some dir ->
    let path = Filename.concat dir file in
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc got);
    Printf.printf "wrote %s\n%!" path
  | None ->
    let want =
      In_channel.with_open_text (Filename.concat "goldens" file)
        In_channel.input_all
    in
    Alcotest.(check string) what want got

(* A CLI report without the fields that change from run to run: wall
   times and the DAG's hit/miss counters. *)
let rec drop_run_fields = function
  | Bv_obs.Json.Obj fields ->
    Bv_obs.Json.Obj
      (List.filter_map
         (fun (k, v) ->
           if k = "dag" || k = "seconds" then None
           else Some (k, drop_run_fields v))
         fields)
  | Bv_obs.Json.List items -> Bv_obs.Json.List (List.map drop_run_fields items)
  | v -> v
