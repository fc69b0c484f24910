(** The per-file rule family (comment marker [dblint]): run the rule
    registry over one parsed unit, and render violations of any family.

    The checks are purely syntactic (no typing pass), which keeps them
    fast and dependency-free; each rule compensates with path scoping
    (protocol modules, [lib/] only, allowlists) and the suppression
    escape hatch documented in {!Suppress}. *)

val all_rules : Rule.t list
(** The registry, in reporting order. *)

val rule_names : string list
(** Names of {!all_rules}, the vocabulary [dblint] allow comments may
    use. *)

val check :
  Rule.t list ->
  file:string ->
  source:string ->
  Parsetree.structure ->
  Rule.violation list
(** Run [rules] over one unit's parsed structure as if it lived at
    [file] (which scopes the rules: protocol basename, [lib/]
    membership, allowlists).  The [mli-coverage] rule consults the
    filesystem for a sibling [.mli].  Unsuppressed and unsorted. *)

val collect_files : string list -> string list
(** Expand files/directories into a deterministically ordered [.ml] list,
    skipping [_build] and dot-directories. *)

val pp_text : Format.formatter -> Rule.violation -> unit
(** [file:line:col: [rule] message] — one line per violation. *)

val pp_json :
  Format.formatter ->
  files:int ->
  suppressed:int ->
  Rule.violation list ->
  unit
(** Machine-readable report:
    [{"files":N,"suppressed":N,"violations":[...]}]. *)
