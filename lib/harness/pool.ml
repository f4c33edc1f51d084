exception
  Worker_failure of { index : int; message : string; backtrace : string }

let () =
  Printexc.register_printer (function
    | Worker_failure { index; message; backtrace } ->
      Some
        (Printf.sprintf "Pool.Worker_failure(item %d: %s)%s" index message
           (if backtrace = "" then ""
            else "\nChild backtrace:\n" ^ backtrace))
    | _ -> None)

let jobs_env () =
  match Sys.getenv_opt "BV_JOBS" with
  | None -> 1
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | _ ->
      invalid_arg (Printf.sprintf "BV_JOBS must be an integer >= 1, got %S" s))

(* A forked worker: the pipe it takes item indices from, the pipe it
   answers on, and the item it holds (each holds one at a time). *)
type worker =
  { pid : int;
    req : out_channel;
    res : in_channel;
    mutable item : int
  }

let signal_name s =
  match
    List.assoc_opt s
      Sys.
        [ (sigkill, "SIGKILL"); (sigterm, "SIGTERM"); (sigsegv, "SIGSEGV");
          (sigabrt, "SIGABRT"); (sigbus, "SIGBUS"); (sigint, "SIGINT")
        ]
  with
  | Some name -> name
  | None -> Printf.sprintf "signal %d" s

let rec reap pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid

(* A reply: the item's result, or the text and backtrace of the
   exception that stopped it. *)
let marshalled (r : ('b, string * string) result) = Marshal.to_string r []

let failed e =
  marshalled (Error (Printexc.to_string e, Printexc.get_backtrace ()))

(* The worker's loop: answer each index with its item's result, or with
   why there is none — [f] raised, or its result cannot be marshalled
   (a closure). Either way the worker lives on for the next index; the
   parent closing the request pipe ends it. *)
let serve f items req res =
  Printexc.record_backtrace true;
  let rec loop () =
    match input_binary_int req with
    | exception End_of_file -> ()
    | i ->
      let reply =
        match f items.(i) with
        | v -> ( try marshalled (Ok v) with e -> failed e)
        | exception e -> failed e
      in
      output_string res reply;
      flush res;
      loop ()
  in
  loop ()

(* Items go out one at a time, each to whichever worker answered last,
   so a slow item never holds up the ones behind it. The parent knows
   which item each worker holds: a worker that dies mid-item fails
   exactly that item, and a fresh worker takes its place while items
   remain. *)
let map ?(jobs = 1) f items =
  let items = Array.of_list items in
  let n = Array.length items in
  if jobs <= 1 || n <= 1 then Array.to_list (Array.map f items)
  else begin
    let results = Array.make n None in
    let next = ref 0 in
    let live = ref [] in
    let spawn () =
      let req_r, req_w = Unix.pipe () and res_r, res_w = Unix.pipe () in
      (* Anything buffered before the fork would be flushed once per
         child. *)
      flush stdout;
      flush stderr;
      match Unix.fork () with
      | 0 ->
        (* A sibling holding our request pipe's write end would keep
           it from closing when the parent closes its own. *)
        List.iter
          (fun w ->
            Unix.close (Unix.descr_of_out_channel w.req);
            Unix.close (Unix.descr_of_in_channel w.res))
          !live;
        Unix.close req_w;
        Unix.close res_r;
        let code =
          try
            serve f items
              (Unix.in_channel_of_descr req_r)
              (Unix.out_channel_of_descr res_w);
            0
          with _ -> 2
        in
        Unix._exit code
      | pid ->
        Unix.close req_r;
        Unix.close res_w;
        let w =
          { pid;
            req = Unix.out_channel_of_descr req_w;
            res = Unix.in_channel_of_descr res_r;
            item = -1
          }
        in
        live := w :: !live;
        w
    in
    let retire w =
      live := List.filter (fun x -> x != w) !live;
      close_out_noerr w.req;
      close_in_noerr w.res;
      reap w.pid
    in
    (* the next index, or the end of the worker's work *)
    let dispatch w =
      if !next < n then begin
        w.item <- !next;
        incr next;
        (* a worker that died since its reply shows as EOF below *)
        try
          output_binary_int w.req w.item;
          flush w.req
        with Sys_error _ -> ()
      end
      else ignore (retire w : Unix.process_status)
    in
    let died w =
      let message =
        match retire w with
        | Unix.WSIGNALED s | Unix.WSTOPPED s ->
          "worker killed by " ^ signal_name s
        | Unix.WEXITED c -> Printf.sprintf "worker exited with code %d" c
      in
      results.(w.item) <- Some (Error (message, ""));
      if !next < n then dispatch (spawn ())
    in
    let receive w =
      match (Marshal.from_channel w.res : (_, string * string) result) with
      | r ->
        results.(w.item) <- Some r;
        dispatch w
      | exception (End_of_file | Failure _) -> died w
    in
    let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
    Fun.protect
      ~finally:(fun () ->
        (* only when the parent itself failed, e.g. interrupted *)
        List.iter
          (fun w ->
            (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (retire w : Unix.process_status))
          !live;
        Sys.set_signal Sys.sigpipe sigpipe)
      (fun () ->
        for _ = 1 to min jobs n do
          dispatch (spawn ())
        done;
        while !live <> [] do
          let ready =
            match
              Unix.select
                (List.map (fun w -> Unix.descr_of_in_channel w.res) !live)
                [] [] (-1.0)
            with
            | ready, _, _ -> ready
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
          in
          List.iter
            (fun w ->
              if List.mem (Unix.descr_of_in_channel w.res) ready then
                receive w)
            !live
        done);
    (* Fail on the lowest-index error so reruns reproduce the report. *)
    Array.iteri
      (fun index -> function
        | Some (Error (message, backtrace)) ->
          raise (Worker_failure { index; message; backtrace })
        | _ -> ())
      results;
    Array.to_list
      (Array.map
         (function Some (Ok v) -> v | _ -> assert false)
         results)
  end
