type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                           *)

let shortest_g x =
  let s = Printf.sprintf "%.15g" x in
  if float_of_string s = x then s
  else
    let s = Printf.sprintf "%.16g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

let float_repr x =
  if Float.is_integer x && Float.abs x < 1e16 then Printf.sprintf "%.1f" x
  else
    (* [%.17g] prints an integral float in [1e16, 1e17) as bare digits,
       which would read back as an [Int]. *)
    let s = shortest_g x in
    if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float x ->
      if Float.is_finite x then Buffer.add_string buf (float_repr x)
      else Buffer.add_string buf "null"
  | String s -> escape_to buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          write buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_to buf k;
          Buffer.add_char buf ':';
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 128 in
  write buf j;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing: recursive descent over the input string.                  *)

exception Fail of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect ch =
    match peek () with
    | Some c when c = ch -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" ch)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail (Printf.sprintf "invalid literal (expected %s)" word)
  in
  let utf8_encode buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  (* Exactly four hex digits, either case: [int_of_string] would also
     take '_' and raise on anything else. *)
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let digit c =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail "invalid \\u escape"
    in
    let v = ref 0 in
    for i = 0 to 3 do
      v := (!v lsl 4) lor digit s.[!pos + i]
    done;
    pos := !pos + 4;
    !v
  in
  let is_low_surrogate cp = cp >= 0xDC00 && cp <= 0xDFFF in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> advance (); Buffer.add_char buf '"'; loop ()
          | Some '\\' -> advance (); Buffer.add_char buf '\\'; loop ()
          | Some '/' -> advance (); Buffer.add_char buf '/'; loop ()
          | Some 'b' -> advance (); Buffer.add_char buf '\b'; loop ()
          | Some 'f' -> advance (); Buffer.add_char buf '\012'; loop ()
          | Some 'n' -> advance (); Buffer.add_char buf '\n'; loop ()
          | Some 'r' -> advance (); Buffer.add_char buf '\r'; loop ()
          | Some 't' -> advance (); Buffer.add_char buf '\t'; loop ()
          | Some 'u' ->
              advance ();
              let cp = hex4 () in
              let cp =
                (* A high surrogate must be followed by a low-surrogate
                   escape, and the two fold into one code point; an
                   unpaired surrogate has no UTF-8 encoding. *)
                if cp >= 0xD800 && cp <= 0xDBFF then begin
                  if not (!pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u')
                  then fail "unpaired surrogate";
                  pos := !pos + 2;
                  let lo = hex4 () in
                  if not (is_low_surrogate lo) then fail "unpaired surrogate";
                  0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                end
                else if is_low_surrogate cp then fail "unpaired surrogate"
                else cp
              in
              utf8_encode buf cp;
              loop ()
          | _ -> fail "invalid escape")
      | c when Char.code c < 0x20 -> fail "unescaped control character"
      | c -> advance (); Buffer.add_char buf c; loop ()
    in
    loop ();
    Buffer.contents buf
  in
  (* RFC 8259 §6: -? (0 | [1-9][0-9]* ) (.[0-9]+ )? ([eE][+-]?[0-9]+ )? *)
  let parse_number () =
    let start = !pos in
    let digits () =
      let first = !pos in
      while
        !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false)
      do
        advance ()
      done;
      if !pos = first then fail "invalid number: expected a digit"
    in
    if peek () = Some '-' then advance ();
    (match peek () with
    | Some '0' -> (
        advance ();
        match peek () with
        | Some '0' .. '9' -> fail "invalid number: leading zero"
        | _ -> ())
    | _ -> digits ());
    let integral = ref true in
    if peek () = Some '.' then begin
      advance ();
      integral := false;
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        integral := false;
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    match if !integral then int_of_string_opt text else None with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt text with
        | Some x -> Float x
        | None -> fail (Printf.sprintf "invalid number %S" text))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin advance (); Obj [] end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin advance (); List [] end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elements ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          elements ();
          List (List.rev !items)
        end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail msg -> Error msg

(* RFC 8259 §8.1: JSON text is UTF-8. Checked before parsing, which
   copies the bytes of a string through as they are. *)
let of_string s =
  if String.is_valid_utf_8 s then parse s else Error "invalid UTF-8"

(* ------------------------------------------------------------------ *)
(* Accessors                                                          *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let get_string = function String s -> Some s | _ -> None
let get_bool = function Bool b -> Some b | _ -> None

let get_int = function
  | Int i -> Some i
  | Float x when Float.is_integer x && Float.abs x <= 1e15 ->
      Some (int_of_float x)
  | _ -> None

let get_float = function
  | Float x -> Some x
  | Int i -> Some (float_of_int i)
  | _ -> None
