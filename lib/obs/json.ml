type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* --- printing ---------------------------------------------------------- *)

(* Whether [s] from byte [i] on holds a quote, a backslash or a control
   byte below 0x20; everything else (0x7f and multi-byte UTF-8 included)
   is copied verbatim. Top-level, so the scan allocates no closure. *)
let rec needs_escape s i =
  i < String.length s
  &&
  let c = String.unsafe_get s i in
  c = '"' || c = '\\' || Char.code c < 0x20 || needs_escape s (i + 1)

let add_str buf s =
  Buffer.add_char buf '"';
  if not (needs_escape s 0) then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
  Buffer.add_char buf '"'

(* Digits of [n <= 0], most significant first. Working on the negative
   magnitude covers [min_int], whose negation does not exist. *)
let rec add_digits buf n =
  if n <= -10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (n mod 10)))

let add_int buf i =
  if i < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf i
  end
  else add_digits buf (-i)

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f ->
      (* JSON has no literal for nan or the infinities. *)
      if not (Float.is_finite f) then invalid_arg "Json.to_buffer: non-finite float";
      (* %.17g survives a round trip; trim the common integral case. *)
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | Str s -> add_str buf s
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_str buf k;
          Buffer.add_char buf ':';
          to_buffer buf v)
        fields;
      Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 256 in
  to_buffer buf t;
  Buffer.contents buf

(* --- parsing ----------------------------------------------------------- *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let fail c msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c (Printf.sprintf "expected %C" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c (Printf.sprintf "expected %s" word)

(* The four hex digits of a \u escape, as a UTF-16 code unit. *)
let hex4 c =
  if c.pos + 4 > String.length c.src then fail c "truncated \\u escape";
  let digit i =
    match c.src.[c.pos + i] with
    | '0' .. '9' as d -> Char.code d - Char.code '0'
    | 'a' .. 'f' as d -> Char.code d - Char.code 'a' + 10
    | 'A' .. 'F' as d -> Char.code d - Char.code 'A' + 10
    | _ -> fail c "bad \\u escape"
  in
  let v = (digit 0 lsl 12) lor (digit 1 lsl 8) lor (digit 2 lsl 4) lor digit 3 in
  c.pos <- c.pos + 4;
  v

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | Some '"' -> Buffer.add_char buf '"'; advance c; loop ()
        | Some '\\' -> Buffer.add_char buf '\\'; advance c; loop ()
        | Some '/' -> Buffer.add_char buf '/'; advance c; loop ()
        | Some 'n' -> Buffer.add_char buf '\n'; advance c; loop ()
        | Some 'r' -> Buffer.add_char buf '\r'; advance c; loop ()
        | Some 't' -> Buffer.add_char buf '\t'; advance c; loop ()
        | Some 'b' -> Buffer.add_char buf '\b'; advance c; loop ()
        | Some 'f' -> Buffer.add_char buf '\012'; advance c; loop ()
        | Some 'u' ->
            advance c;
            let cp = hex4 c in
            let cp =
              if cp >= 0xdc00 && cp <= 0xdfff then fail c "lone low surrogate"
              else if cp >= 0xd800 && cp <= 0xdbff then begin
                (* A high surrogate must pair with an escaped low one. *)
                if not (c.pos + 2 <= String.length c.src && String.sub c.src c.pos 2 = "\\u")
                then fail c "lone high surrogate";
                c.pos <- c.pos + 2;
                let lo = hex4 c in
                if lo < 0xdc00 || lo > 0xdfff then fail c "lone high surrogate";
                0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00)
              end
              else cp
            in
            Buffer.add_utf_8_uchar buf (Uchar.of_int cp);
            loop ()
        | _ -> fail c "bad escape")
    | Some ch ->
        Buffer.add_char buf ch;
        advance c;
        loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while (match peek c with Some ch -> is_num_char ch | None -> false) do
    advance c
  done;
  let s = String.sub c.src start (c.pos - start) in
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt s with
      | Some f when Float.is_finite f -> Float f
      | _ -> fail c (Printf.sprintf "bad number %S" s))

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin advance c; Obj [] end
      else begin
        let rec fields acc =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' -> advance c; fields ((k, v) :: acc)
          | Some '}' -> advance c; List.rev ((k, v) :: acc)
          | _ -> fail c "expected ',' or '}'"
        in
        Obj (fields [])
      end
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin advance c; Arr [] end
      else begin
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' -> advance c; items (v :: acc)
          | Some ']' -> advance c; List.rev (v :: acc)
          | _ -> fail c "expected ',' or ']'"
        in
        Arr (items [])
      end
  | Some '"' -> Str (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> parse_number c

let parse s =
  let c = { src = s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then fail c "trailing garbage";
  v

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None
