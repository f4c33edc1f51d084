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

(* Deterministic fork/join scatter: worker [w] walks [plan jobs w] and
   streams [(index, result)] pairs back over its own pipe, so reassembly
   is by index and the output order never depends on scheduling. Plans
   may overlap (work stealing — [step] itself arbitrates by returning
   [None] for items another worker owns); whatever nobody produced is
   [gather]ed in the parent. With [jobs <= 1] (or a single item) the
   plan runs in the current process — same semantics, and in-process
   memo tables keep accumulating. *)
let scatter ~jobs ~plan ~step ~gather n =
  let results = Array.make (max n 0) None in
  if jobs <= 1 || n <= 1 then
    (* step exceptions propagate raw here — no fork, nothing to carry *)
    Seq.iter
      (fun i ->
        if Option.is_none results.(i) then
          match step i with
          | Some v -> results.(i) <- Some (Ok v)
          | None -> ())
      (plan 1 0)
  else begin
    let jobs = min jobs n in
    (* Anything buffered before the fork would be flushed once per child. *)
    flush stdout;
    flush stderr;
    let spawn w =
      let rd, wr = Unix.pipe () in
      match Unix.fork () with
      | 0 ->
        Unix.close rd;
        Printexc.record_backtrace true;
        let oc = Unix.out_channel_of_descr wr in
        (try
           Seq.iter
             (fun i ->
               let r =
                 try Option.map (fun v -> Ok v) (step i)
                 with e ->
                   let bt = Printexc.get_backtrace () in
                   Some (Error (Printexc.to_string e, bt))
               in
               match r with
               | None -> ()
               | Some r -> Marshal.to_channel oc (i, r) [])
             (plan jobs w);
           flush oc
         with _ -> ());
        Unix._exit 0
      | pid ->
        Unix.close wr;
        (pid, rd)
    in
    let workers = List.init jobs spawn in
    (* Read each pipe to EOF before reaping its worker: a still-writing
       child must never block on a full pipe while we wait on it. *)
    List.iter
      (fun (pid, rd) ->
        let ic = Unix.in_channel_of_descr rd in
        (try
           while true do
             let idx, r =
               (Marshal.from_channel ic
                 : int * (_, string * string) result)
             in
             (* first producer wins; a racing duplicate is identical *)
             if Option.is_none results.(idx) then results.(idx) <- Some r
           done
         with End_of_file | Failure _ -> ());
        close_in ic;
        ignore (Unix.waitpid [] pid))
      workers;
    (* Fail on the lowest-index error so reruns reproduce the report. *)
    Array.iteri
      (fun i r ->
        match r with
        | Some (Error (message, backtrace)) ->
          raise (Worker_failure { index = i; message; backtrace })
        | _ -> ())
      results
  end;
  List.init n (fun i ->
      match results.(i) with
      | Some (Ok v) -> v
      | Some (Error (message, backtrace)) ->
        raise (Worker_failure { index = i; message; backtrace })
      | None -> gather i)

let map ?(jobs = 1) f items =
  let items = Array.of_list items in
  let n = Array.length items in
  let strided jobs w =
    Seq.unfold (fun i -> if i < n then Some (i, i + jobs) else None) w
  in
  scatter ~jobs
    ~plan:strided
    ~step:(fun i -> Some (f items.(i)))
    ~gather:(fun i ->
      raise
        (Worker_failure
           { index = i;
             message = "worker died before finishing item";
             backtrace = ""
           }))
    n
