type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let float f = if Float.is_finite f then Float f else Null

(* Version stamp for every top-level document the tree emits (stats,
   experiment tables, bench artifacts): bump when a document's shape
   changes so downstream consumers can detect new sections. History:
   1 = pre-cycle-accounting; 2 = cpi_stack / top_branches / per-window
   cpi sections. *)
let schema_version = 2

(* ------------------------------------------------------------- emission *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Shortest representation that survives a round trip: try increasing
   precision; force a '.' or exponent so the token re-parses as a float. *)
let float_to_string f =
  let exact p =
    let s = Printf.sprintf "%.*g" p f in
    if Float.of_string s = f then Some s else None
  in
  let s =
    match exact 12 with
    | Some s -> s
    | None -> (match exact 15 with Some s -> s | None -> Printf.sprintf "%.17g" f)
  in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
  else s ^ ".0"

(* [spill buf] runs between the items of a list or an object, so a
   writer can drain [buf] as the document grows. *)
let emit ~indent ~spill buf v =
  let pad depth =
    if indent then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * depth) ' ')
    end
  in
  let rec go depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
      if Float.is_finite f then Buffer.add_string buf (float_to_string f)
      else Buffer.add_string buf "null"
    | String s -> escape_to buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          spill buf;
          pad (depth + 1);
          go (depth + 1) item)
        items;
      pad depth;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          spill buf;
          pad (depth + 1);
          escape_to buf k;
          Buffer.add_string buf (if indent then ": " else ":");
          go (depth + 1) item)
        fields;
      pad depth;
      Buffer.add_char buf '}'
  in
  go 0 v

let to_string ?(indent = false) v =
  let buf = Buffer.create 256 in
  emit ~indent ~spill:ignore buf v;
  Buffer.contents buf

(* Written in chunks of about this many bytes, so a large document (a
   whole-run trace) never exists twice over as one string. *)
let chunk = 65536

let to_channel ?(indent = false) oc v =
  let buf = Buffer.create chunk in
  let spill buf =
    if Buffer.length buf >= chunk then begin
      Buffer.output_buffer oc buf;
      Buffer.clear buf
    end
  in
  emit ~indent ~spill buf v;
  Buffer.add_char buf '\n';
  Buffer.output_buffer oc buf

(* -------------------------------------------------------------- parsing *)

exception Parse of int * string

let of_string text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Parse (!pos, msg)) in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some got when got = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    if !pos + String.length word <= n
       && String.sub text !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("expected " ^ word)
  in
  (* UTF-8 encode one scalar value (surrogate pairs already combined). *)
  let add_utf8 buf u =
    if u < 0x80 then Buffer.add_char buf (Char.chr u)
    else if u < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
    else if u < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = int_of_string ("0x" ^ String.sub text !pos 4) in
    pos := !pos + 4;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | None -> fail "unterminated escape"
        | Some c ->
          advance ();
          (match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
            let u = hex4 () in
            let u =
              (* high surrogate: combine with the following \uXXXX *)
              if u >= 0xD800 && u <= 0xDBFF
                 && !pos + 2 <= n
                 && text.[!pos] = '\\'
                 && text.[!pos + 1] = 'u'
              then begin
                pos := !pos + 2;
                let lo = hex4 () in
                0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
              end
              else u
            in
            add_utf8 buf u
          | c -> fail (Printf.sprintf "bad escape '\\%c'" c)));
        go ()
      | Some c ->
        advance ();
        Buffer.add_char buf c;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char text.[!pos] do
      advance ()
    done;
    let token = String.sub text start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') token then
      match Float.of_string_opt token with
      | Some f -> Float f
      | None -> fail ("bad number " ^ token)
    else
      match int_of_string_opt token with
      | Some i -> Int i
      | None -> (
        match Float.of_string_opt token with
        | Some f -> Float f
        | None -> fail ("bad number " ^ token))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          items := parse_value () :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse (at, msg) ->
    Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function List l -> l | _ -> []
