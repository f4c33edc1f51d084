(* Bump whenever what a stored node means changes with no change to its
   key's inputs: the compile pipeline ([prepare]), the timing model
   ([sim]), or the [Runner.artifact] / [Runner.run] payload types.
   Everything else is recomputed on every run and never stored. *)
let code_format = 8

type counters =
  { hits : int;
    misses : int;
    stolen : int
  }

type mut_counters =
  { mutable m_hits : int;
    mutable m_misses : int;
    mutable m_stolen : int
  }

type t =
  { dir : string option;
    format : int;
    c : mut_counters;
    memo : (string, Obj.t) Hashtbl.t
  }

type 'a node =
  { n_kind : string;
    n_label : string;
    n_inputs : string;  (* fingerprint of the inputs value *)
    n_compute : unit -> 'a
  }

let fingerprint v = Digest.to_hex (Digest.string (Marshal.to_string v []))

let node ~kind ?label ~inputs compute =
  { n_kind = kind;
    n_label = (match label with Some l -> l | None -> kind);
    n_inputs = fingerprint inputs;
    n_compute = compute
  }

let create ?(format = code_format) ?dir () =
  { dir;
    format;
    c = { m_hits = 0; m_misses = 0; m_stolen = 0 };
    memo = Hashtbl.create 64
  }

(* The compiler version rides along because marshalled payloads are not
   stable across it. *)
let key t n =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (t.format, Sys.ocaml_version, n.n_kind, n.n_inputs)
          []))

type provenance = Hit | Miss | Stolen

let count t = function
  | Hit -> t.c.m_hits <- t.c.m_hits + 1
  | Miss -> t.c.m_misses <- t.c.m_misses + 1
  | Stolen -> t.c.m_stolen <- t.c.m_stolen + 1

let counters t = { hits = t.c.m_hits; misses = t.c.m_misses; stolen = t.c.m_stolen }

let add_counters t c =
  t.c.m_hits <- t.c.m_hits + c.hits;
  t.c.m_misses <- t.c.m_misses + c.misses;
  t.c.m_stolen <- t.c.m_stolen + c.stolen

let counters_json t =
  let open Bv_obs.Json in
  Obj
    [ ("hits", Int t.c.m_hits);
      ("misses", Int t.c.m_misses);
      ("stolen", Int t.c.m_stolen);
      ("nodes", Int (t.c.m_hits + t.c.m_misses + t.c.m_stolen))
    ]

(* ------------------------------------------------------------- the store *)

let node_path dir k = Filename.concat dir (k ^ ".node")
let meta_path dir k = Filename.concat dir (k ^ ".meta")
let claim_path dir k = Filename.concat dir (k ^ ".claim")
let log_path dir = Filename.concat dir "dag.log"

let rec ensure_dir d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    ensure_dir (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

(* Read once, like BV_SCALE: a value that is not a finite number >= 0 is
   an error, not the default — "5m" would otherwise wait an hour, and a
   NaN deadline never passes. *)
let env_seconds name default =
  let v =
    lazy
      (match Sys.getenv_opt name with
      | None -> default
      | Some s -> (
        match Float.of_string_opt (String.trim s) with
        | Some f when Float.is_finite f && f >= 0.0 -> f
        | _ ->
          invalid_arg
            (Printf.sprintf "%s must be a finite number >= 0, got %S" name s)))
  in
  fun () -> Lazy.force v

(* How long an awaiting process waits for a claimed node before giving up
   (the owner may legitimately be simulating for a long time). *)
let wait_budget = env_seconds "BV_DAG_WAIT" 3600.0

let poll_interval = 0.05

let iso8601 time =
  let tm = Unix.gmtime time in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

(* One O_APPEND write per event: short lines are atomic, so concurrent
   evaluators interleave whole records. This is the provenance [explain]
   replays. [detail] ends the line: why a node was rejected or could not
   be stored. *)
let log_event ?(detail = "") dir event k ~kind ~label =
  try
    let fd =
      Unix.openfile (log_path dir)
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
        0o644
    in
    let line =
      Printf.sprintf "%s pid=%d %s %s %s %s%s\n"
        (iso8601 (Unix.time ()))
        (Unix.getpid ()) event k kind label
        (if detail = "" then "" else " " ^ detail)
    in
    ignore (Unix.write_substring fd line 0 (String.length line));
    Unix.close fd
  with Unix.Unix_error _ | Sys_error _ -> ()

(* A node file is a header line, "bvdag <length> <digest>", then the
   marshalled payload. The header lives in the node file itself because
   one rename must publish both: the [.meta] sidecar lands after the
   node. A reader checks the payload against the header before
   unmarshalling, so a cut, emptied or bit-flipped file is a miss, never
   a wrong value or a crash. *)
let node_magic = "bvdag"

let write_node oc v =
  let payload = Marshal.to_string v [] in
  Printf.fprintf oc "%s %d %s\n" node_magic (String.length payload)
    (Digest.to_hex (Digest.string payload));
  Out_channel.output_string oc payload

(* The payload's offset in a node file's contents, or why the file is not
   a whole node. *)
let check_node text =
  match String.index_opt text '\n' with
  | None -> Error (if text = "" then "empty file" else "no header")
  | Some nl -> (
    match String.split_on_char ' ' (String.sub text 0 nl) with
    | [ magic; len; digest ] when magic = node_magic ->
      let have = String.length text - nl - 1 in
      if int_of_string_opt len <> Some have then
        Error (Printf.sprintf "payload is %d bytes, header says %s" have len)
      else if Digest.to_hex (Digest.substring text (nl + 1) have) <> digest
      then Error "payload digest mismatch"
      else Ok (nl + 1)
    | _ -> Error "no header")

(* [None] when [k] has no node file. *)
let read_node dir k =
  match In_channel.with_open_bin (node_path dir k) In_channel.input_all with
  | exception Sys_error _ -> None
  | text -> Some (Result.map (fun off -> (text, off)) (check_node text))

(* [k]'s stored value; [None] when it has none or its file fails the
   check, which [log] records in [dag.log]. *)
let load_value ?(log = true) dir n k =
  match read_node dir k with
  | None -> None
  | Some (Error reason) ->
    if log then
      log_event dir "corrupt" k ~kind:n.n_kind ~label:n.n_label ~detail:reason;
    None
  | Some (Ok (text, off)) ->
    (* touch: gc prunes least-recently-used first *)
    (try Unix.utimes (node_path dir k) 0.0 0.0 with Unix.Unix_error _ -> ());
    Some (Marshal.from_string text off)

(* Write [path] through a tmp file renamed into place: rename is atomic,
   so concurrent readers never see a torn file. The explicit close
   reports a failing final flush (a full disk), which the [with_open_*]
   functions' own close drops; on any failure the tmp file goes. *)
let publish path write =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  try
    Out_channel.with_open_bin tmp (fun oc ->
        write oc;
        Out_channel.close oc);
    Sys.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

(* A value that cannot be stored is still returned, uncached: the
   failure is logged and, when it hits the payload, no node is
   published. *)
let store_value t dir n k v ~seconds =
  try
    ensure_dir dir;
    publish (node_path dir k) (fun oc -> write_node oc v);
    let meta =
      let open Bv_obs.Json in
      Obj
        [ ("key", String k);
          ("kind", String n.n_kind);
          ("label", String n.n_label);
          ("format", Int t.format);
          ("ocaml", String Sys.ocaml_version);
          ("inputs", String n.n_inputs);
          ("created_at", String (iso8601 (Unix.time ())));
          ("pid", Int (Unix.getpid ()));
          ("compute_seconds", float seconds)
        ]
    in
    publish (meta_path dir k) (fun oc -> Bv_obs.Json.to_channel oc meta)
  with e ->
    log_event dir "store-failed" k ~kind:n.n_kind ~label:n.n_label
      ~detail:(Printexc.to_string e)

(* ----------------------------------------------------------- claim files *)

(* A claim appears whole: its line goes to a private tmp file that is
   then hard-linked into place, and the link fails with EEXIST when the
   claim is taken. A claim file created empty and written after would
   read as stale (pid 0) to a process polling in between, which would
   delete it and compute the node a second time. *)
let try_claim dir k =
  ensure_dir dir;
  let path = claim_path dir k in
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  match
    Out_channel.with_open_bin tmp (fun oc ->
        Printf.fprintf oc "%d %s %.0f\n" (Unix.getpid ()) (Unix.gethostname ())
          (Unix.time ()));
    Fun.protect
      ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
      (fun () -> Unix.link tmp path)
  with
  | () -> true
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> false
  (* A store that cannot take claims (permissions, read-only mount)
     degrades to uncoordinated-but-correct: compute locally. *)
  | exception (Unix.Unix_error _ | Sys_error _) -> true

let release_claim dir k =
  try Sys.remove (claim_path dir k) with Sys_error _ -> ()

let claim_info dir k =
  match
    In_channel.with_open_text (claim_path dir k) In_channel.input_all
  with
  | exception Sys_error _ -> None (* vanished: owner finished or crashed *)
  | text -> (
    match String.split_on_char ' ' (String.trim text) with
    | pid :: host :: stamp :: _ ->
      let pid = try int_of_string pid with _ -> 0 in
      let age =
        try Unix.time () -. float_of_string stamp with _ -> infinity
      in
      Some (pid, host, age)
    | _ -> Some (0, "", infinity))

(* A store serves one host. A claim is stale exactly when its owner is
   not a live process of this host: no such pid, or another host's name.
   Values are deterministic and every publish is an atomic rename, so
   taking over a claim whose owner is in fact alive costs at most one
   recomputation. A pid we may not signal (EPERM) is alive. *)
let claim_stale dir k =
  match claim_info dir k with
  | None -> false
  | Some (pid, host, _) -> (
    host <> Unix.gethostname () || pid <= 0
    ||
    match Unix.kill pid 0 with
    | () -> false
    | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true
    | exception Unix.Unix_error _ -> false)

(* ------------------------------------------------------------ evaluation *)

let memoize t k v = Hashtbl.replace t.memo k (Obj.repr v)

(* Claim-or-skip: compute [n] only if nobody has published it and we win
   the claim; [None] means someone else owns it (or already stored it).
   Safe to run in a forked worker — the store and log writes are atomic,
   and the claim is released even if compute raises. *)
let attempt_exclusive t n k =
  match t.dir with
  | None ->
    let v = n.n_compute () in
    memoize t k v;
    Some v
  | Some dir ->
    (* published meanwhile; a node that fails its check does not count,
       it is recomputed and overwritten *)
    let published () =
      match read_node dir k with Some (Ok _) -> true | _ -> false
    in
    if published () then None
    else if not (try_claim dir k) then None
    else if published () then begin
      (* another process stored it and released its claim between the
         first look and our claim: load it, do not compute it again *)
      release_claim dir k;
      None
    end
    else
      Some
        (Fun.protect
           ~finally:(fun () -> release_claim dir k)
           (fun () ->
             let t0 = Unix.gettimeofday () in
             let v = n.n_compute () in
             store_value t dir n k v ~seconds:(Unix.gettimeofday () -. t0);
             log_event dir "miss" k ~kind:n.n_kind ~label:n.n_label;
             memoize t k v;
             v))

(* Somebody else claimed [k]: poll for their published value, take over
   if their claim disappears without a value (crash before store) or
   goes stale. The deadline bounds every retry, so no state of the store
   can make this spin forever. The caller has already logged a corrupt
   node; polls stay quiet. *)
let await t n k =
  let dir = match t.dir with Some d -> d | None -> assert false in
  let deadline = Unix.gettimeofday () +. wait_budget () in
  let rec loop () =
    match load_value ~log:false dir n k with
    | Some v ->
      memoize t k v;
      log_event dir "stolen" k ~kind:n.n_kind ~label:n.n_label;
      (Stolen, v)
    | None ->
      if not (Sys.file_exists (claim_path dir k)) then (
        match attempt_exclusive t n k with
        | Some v -> (Miss, v)
        | None ->
          (* lost the re-acquire race; the new owner is at work *)
          retry ())
      else if claim_stale dir k then begin
        release_claim dir k;
        loop ()
      end
      else retry ()
  and retry () =
    if Unix.gettimeofday () > deadline then
      failwith
        (Printf.sprintf
           "Dag: timed out after %.0fs awaiting node %s (%s %s); if its \
            owner is gone, remove %s"
           (wait_budget ()) k n.n_kind n.n_label (claim_path dir k))
    else begin
      Unix.sleepf poll_interval;
      loop ()
    end
  in
  loop ()

let eval t n =
  let k = key t n in
  match Hashtbl.find_opt t.memo k with
  | Some v ->
    count t Hit;
    Obj.obj v
  | None -> (
    match t.dir with
    | None -> (
      match attempt_exclusive t n k with
      | Some v -> count t Miss; v
      | None -> assert false)
    | Some dir -> (
      match load_value dir n k with
      | Some v ->
        memoize t k v;
        log_event dir "hit" k ~kind:n.n_kind ~label:n.n_label;
        count t Hit;
        v
      | None -> (
        match attempt_exclusive t n k with
        | Some v -> count t Miss; v
        | None ->
          let p, v = await t n k in
          count t p;
          v)))

(* ------------------------------------------------------------ maintenance *)

type entry =
  { e_key : string;
    e_kind : string;
    e_label : string;
    e_bytes : int;
    e_age : float
  }

let read_meta dir k =
  let str field json d =
    match Bv_obs.Json.member field json with
    | Some (Bv_obs.Json.String s) -> s
    | _ -> d
  in
  match In_channel.with_open_text (meta_path dir k) In_channel.input_all with
  | exception Sys_error _ -> None
  | text -> (
    match Bv_obs.Json.of_string text with
    | Error _ -> None
    | Ok json -> Some (json, str "kind" json "?", str "label" json "?"))

let entry_of dir file =
  let k = Filename.chop_suffix file ".node" in
  match Unix.stat (Filename.concat dir file) with
  | exception Unix.Unix_error _ -> None
  | st ->
    let kind, label =
      match read_meta dir k with
      | Some (_, kind, label) -> (kind, label)
      | None -> ("?", "?")
    in
    Some
      { e_key = k;
        e_kind = kind;
        e_label = label;
        e_bytes = st.Unix.st_size;
        e_age = Unix.time () -. st.Unix.st_mtime
      }

let entries dir =
  let files =
    match Sys.readdir dir with
    | files -> Array.to_list files
    | exception Sys_error _ -> []
  in
  List.sort
    (fun a b -> Float.compare b.e_age a.e_age)
    (List.filter_map
       (fun f ->
         if Filename.check_suffix f ".node" then entry_of dir f else None)
       files)

type claim =
  { c_key : string;
    c_pid : int;
    c_host : string;
    c_age : float;
    c_stale : bool
  }

let claims dir =
  let files =
    match Sys.readdir dir with
    | files -> Array.to_list files
    | exception Sys_error _ -> []
  in
  List.filter_map
    (fun f ->
      if not (Filename.check_suffix f ".claim") then None
      else
        let k = Filename.chop_suffix f ".claim" in
        match claim_info dir k with
        | None -> None
        | Some (pid, host, age) ->
          Some
            { c_key = k;
              c_pid = pid;
              c_host = host;
              c_age = age;
              c_stale = claim_stale dir k
            })
    files

let status_json dir =
  let open Bv_obs.Json in
  let es = entries dir in
  let kinds =
    List.sort_uniq compare (List.map (fun e -> e.e_kind) es)
  in
  let by_kind kind =
    let of_kind = List.filter (fun e -> e.e_kind = kind) es in
    Obj
      [ ("kind", String kind);
        ("entries", Int (List.length of_kind));
        ("bytes", Int (List.fold_left (fun a e -> a + e.e_bytes) 0 of_kind))
      ]
  in
  Obj
    [ ("schema_version", Int schema_version);
      ("dir", String dir);
      ("format", Int code_format);
      ("entries", Int (List.length es));
      ("bytes", Int (List.fold_left (fun a e -> a + e.e_bytes) 0 es));
      ("kinds", List (List.map by_kind kinds));
      ( "claims",
        List
          (List.map
             (fun c ->
               Obj
                 [ ("key", String c.c_key);
                   ("pid", Int c.c_pid);
                   ("host", String c.c_host);
                   ("age_seconds", float c.c_age);
                   ("stale", Bool c.c_stale)
                 ])
             (claims dir)) )
    ]

type gc_report =
  { gcr_examined : int;
    gcr_bytes : int;
    gcr_removed : entry list;
    gcr_removed_bytes : int;
    gcr_claims_broken : int;
    gcr_dry_run : bool
  }

let max_log_bytes = 512 * 1024
let kept_log_lines = 2000

let gc ?max_age ?max_bytes ~dry_run dir =
  let es = entries dir in
  let total = List.fold_left (fun a e -> a + e.e_bytes) 0 es in
  let aged, kept =
    match max_age with
    | None -> ([], es)
    | Some age -> List.partition (fun e -> e.e_age > age) es
  in
  (* [entries] sorts oldest first, so dropping from the front of [kept]
     evicts least-recently-used entries until the budget fits. *)
  let over_budget =
    match max_bytes with
    | None -> []
    | Some budget ->
      let rec drop kept size =
        match kept with
        | e :: rest when size > budget -> e :: drop rest (size - e.e_bytes)
        | _ -> []
      in
      drop kept (List.fold_left (fun a e -> a + e.e_bytes) 0 kept)
  in
  let removed = aged @ over_budget in
  let stale = List.filter (fun c -> c.c_stale) (claims dir) in
  if not dry_run then begin
    List.iter
      (fun e ->
        let rm suffix =
          try Sys.remove (Filename.concat dir (e.e_key ^ suffix))
          with Sys_error _ -> ()
        in
        rm ".node";
        rm ".meta")
      removed;
    List.iter (fun c -> release_claim dir c.c_key) stale;
    (* keep the provenance log from growing without bound *)
    (try
       if (Unix.stat (log_path dir)).Unix.st_size > max_log_bytes then begin
         let lines =
           String.split_on_char '\n'
             (In_channel.with_open_text (log_path dir) In_channel.input_all)
         in
         let keep = List.filteri
             (fun i _ -> i >= List.length lines - kept_log_lines)
             lines
         in
         let tmp = log_path dir ^ ".tmp" in
         Out_channel.with_open_text tmp (fun oc ->
             Out_channel.output_string oc (String.concat "\n" keep));
         Sys.rename tmp (log_path dir)
       end
     with Unix.Unix_error _ | Sys_error _ -> ())
  end;
  { gcr_examined = List.length es;
    gcr_bytes = total;
    gcr_removed = removed;
    gcr_removed_bytes = List.fold_left (fun a e -> a + e.e_bytes) 0 removed;
    gcr_claims_broken = List.length stale;
    gcr_dry_run = dry_run
  }

let gc_report_to_json r =
  let open Bv_obs.Json in
  Obj
    [ ("schema_version", Int schema_version);
      ("examined", Int r.gcr_examined);
      ("bytes", Int r.gcr_bytes);
      ("removed", Int (List.length r.gcr_removed));
      ("removed_bytes", Int r.gcr_removed_bytes);
      ("claims_broken", Int r.gcr_claims_broken);
      ("dry_run", Bool r.gcr_dry_run);
      ( "removed_entries",
        List
          (List.map
             (fun e ->
               Obj
                 [ ("key", String e.e_key);
                   ("kind", String e.e_kind);
                   ("label", String e.e_label);
                   ("bytes", Int e.e_bytes)
                 ])
             r.gcr_removed) )
    ]

type explanation =
  { x_key : string;
    x_kind : string;
    x_label : string;
    x_format : int;
    x_ocaml : string;
    x_inputs : string;
    x_created_at : string;
    x_pid : int;
    x_compute_seconds : float;
    x_bytes : int;
    x_age : float;
    x_events : string list
  }

let explain dir prefix =
  let matching =
    List.filter
      (fun e -> String.starts_with ~prefix e.e_key)
      (entries dir)
  in
  match matching with
  | [] -> Error (Printf.sprintf "no stored node matches %s" prefix)
  | _ :: _ :: _ ->
    Error
      (Printf.sprintf "%d stored nodes match %s; give more hex digits"
         (List.length matching) prefix)
  | [ e ] ->
    let json_str field json d =
      match Bv_obs.Json.member field json with
      | Some (Bv_obs.Json.String s) -> s
      | _ -> d
    in
    let json_int field json d =
      match Bv_obs.Json.member field json with
      | Some (Bv_obs.Json.Int i) -> i
      | _ -> d
    in
    let meta = read_meta dir e.e_key in
    let json = match meta with Some (j, _, _) -> j | None -> Bv_obs.Json.Null in
    let events =
      match
        In_channel.with_open_text (log_path dir) In_channel.input_all
      with
      | exception Sys_error _ -> []
      | text ->
        List.filter
          (fun line ->
            let contains =
              let kl = String.length e.e_key and ll = String.length line in
              let rec scan i =
                i + kl <= ll && (String.sub line i kl = e.e_key || scan (i + 1))
              in
              scan 0
            in
            line <> "" && contains)
          (String.split_on_char '\n' text)
    in
    Ok
      { x_key = e.e_key;
        x_kind = e.e_kind;
        x_label = e.e_label;
        x_format = json_int "format" json 0;
        x_ocaml = json_str "ocaml" json "?";
        x_inputs = json_str "inputs" json "?";
        x_created_at = json_str "created_at" json "?";
        x_pid = json_int "pid" json 0;
        x_compute_seconds =
          (match Bv_obs.Json.member "compute_seconds" json with
          | Some (Bv_obs.Json.Float f) -> f
          | Some (Bv_obs.Json.Int i) -> float_of_int i
          | _ -> 0.0);
        x_bytes = e.e_bytes;
        x_age = e.e_age;
        x_events = events
      }

let explanation_to_json x =
  let open Bv_obs.Json in
  Obj
    [ ("schema_version", Int schema_version);
      ("key", String x.x_key);
      ("kind", String x.x_kind);
      ("label", String x.x_label);
      ("format", Int x.x_format);
      ("ocaml", String x.x_ocaml);
      ("inputs", String x.x_inputs);
      ("created_at", String x.x_created_at);
      ("pid", Int x.x_pid);
      ("compute_seconds", float x.x_compute_seconds);
      ("bytes", Int x.x_bytes);
      ("age_seconds", float x.x_age);
      ("events", List (List.map (fun e -> String e) x.x_events))
    ]
