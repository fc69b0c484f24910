(** The program [dbcheck] analyses: every [.ml] unit under the
    requested paths, parsed once and shared by all four rule families.
    A unit's module name is its capitalised basename, which is how
    cross-module references resolve in the dune-built libraries
    (aliases are handled in {!Graph}). *)

type unit_info = {
  name : string;  (** module name, e.g. ["Fixed"] for [lib/dbtree/fixed.ml] *)
  file : string;  (** path as given *)
  source : string;
  structure : Parsetree.structure;
}

type t = { units : unit_info list }

val load : string list -> t * (string * string) list
(** Parse every [.ml] under the paths (see {!Dbtree_lint.Lint.collect_files}).
    Unparseable files are skipped and returned as [(file, error)]. *)

val of_sources : (string * string) list -> t
(** In-memory program from [(file, source)] pairs, for tests.
    @raise Syntaxerr.Error on unparseable input. *)

val find : t -> string -> unit_info option
(** Lookup by module name. *)

val find_file : t -> string -> unit_info option
(** Lookup by path. *)

val unit_names : t -> string list
