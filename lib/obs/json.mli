(** Minimal JSON reader used to validate exported traces.  The repo has
    no JSON dependency by design; this is just enough standard JSON for
    {!Export.validate} and the [trace-check] CLI.  It is strict where
    validation needs it: raw control characters inside strings and [\u]
    escapes that are not four hex digits are parse errors.  Numbers
    parse as floats. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val parse : string -> t
(** Raises {!Parse_error} on malformed input or trailing garbage. *)

val of_string : string -> (t, string) result

val member : string -> t -> t option
(** Field lookup; [None] when absent or not an object. *)

val to_list : t -> t list option
val to_string : t -> string option
val to_float : t -> float option
