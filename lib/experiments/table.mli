(** Plain-text table rendering for experiment output. *)

type t

val create : title:string -> columns:string list -> t
val add_row : t -> string list -> unit
val add_note : t -> string -> unit
val cell_f : float -> string
(** Fixed two-decimal float cell. *)

val cell_i : int -> string

val render : t -> string
(** Render to a string: title, aligned header, rows, then notes — exactly
    the bytes [print] writes (minus the leading blank line).  Used by the
    regression tests to byte-pin experiment tables. *)

val print : t -> unit
(** Render to stdout: title, aligned header, rows, then notes.  When
    capture is on (see {!set_capture}), the table is also recorded. *)

(** {2 Readback} — for the golden-table renderer and tests. *)

val rows : t -> string list list
(** Rows in display (insertion) order. *)

val set_capture : bool -> unit
(** Enable/disable recording of every subsequently printed table.
    Enabling resets the capture buffer. *)

val captured : unit -> t list
(** Tables printed since capture was enabled, in print order. *)
