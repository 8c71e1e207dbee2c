(** Minimal JSON tree, printer and parser.

    The observability layer must stay dependency-free (it sits below the
    hardware model), so it carries its own ~100-line JSON implementation
    instead of pulling in yojson. The printer emits deterministic output
    (object fields in the order given, no whitespace variation) so traces
    can be compared byte-for-byte; the parser exists so exported traces can
    be validated round-trip in tests and by the trace-smoke CI rule. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering, deterministic field order. *)

val to_buffer : Buffer.t -> t -> unit
(** Appends the compact rendering to the buffer. Raises
    [Invalid_argument] on a non-finite [Float] (nan or an infinity),
    which has no JSON literal; {!to_string} inherits this. *)

val add_str : Buffer.t -> string -> unit
(** [add_str buf s] appends exactly what [to_buffer buf (Str s)] does:
    [s] quoted, with the quote, the backslash and bytes below 0x20
    escaped and every other byte copied verbatim. A string that needs
    no escaping is copied with one [Buffer.add_string]. The one escaper
    of this module; writers that stream JSON without building a tree
    use it. *)

val add_int : Buffer.t -> int -> unit
(** [add_int buf i] appends exactly what [to_buffer buf (Int i)] does
    (the decimal digits of [i], [min_int] included), without allocating. *)

exception Parse_error of string

val parse : string -> t
(** Raises {!Parse_error}, and no other exception, on malformed input or
    trailing garbage. [\u] escapes take exactly four hex digits and
    decode to UTF-8, surrogate pairs included; a lone surrogate is
    malformed. A number that overflows to an infinity is malformed. *)

val member : string -> t -> t option
(** [member k (Obj ...)] is the value bound to [k], if any; [None] on
    non-objects. *)
