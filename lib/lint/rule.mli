(** Rule interface for the per-file family ([dblint] marker): a named
    check over one parsed source file, and the violation record every
    family reports. *)

type violation = {
  rule : string;  (** rule name, e.g. ["no-nondeterminism"] *)
  file : string;  (** path as given on the command line *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based *)
  message : string;
}

(** Per-file facts every rule may consult, derived from the path once. *)
type ctx = {
  file : string;
  source : string;  (** raw file contents *)
  in_lib : bool;  (** the path has a [lib] component *)
  nondet_allowlisted : bool;
      (** [rng.ml]: may use raw randomness and hash-order iteration *)
  protocol : bool;  (** one of the protocol kernels (see
          {!protocol_basenames}): subject to exhaustive-dispatch *)
}

type t = {
  name : string;
  doc : string;  (** one-line description for [--list-rules] *)
  check : ctx -> Parsetree.structure -> violation list;
}

val protocol_basenames : string list
(** Module basenames holding a [Msg.t] dispatch loop. *)

val make_ctx : file:string -> source:string -> ctx

val violation : ctx -> rule:string -> loc:Location.t -> string -> violation

val strip_stdlib : Longident.t -> Longident.t
(** Drop a leading [Stdlib.] qualifier. *)

val lident_components : Longident.t -> string list
(** ["A.B.c"] as [["A"; "B"; "c"]] (empty for functor applications). *)

val mentions_module : Longident.t -> string -> bool
(** Does any component of the (Stdlib-stripped) path equal the module
    name? *)
