(** dbflow: whole-program protocol-flow rules over {!Graph}.

    Where dblint checks one file's syntax, dbflow checks properties
    that only exist across the program: that every message kind a
    kernel sends is really handled there, that the synchronous-split
    AAS window cannot leak an initial-update reply (Theorem 1), that
    every handler arm's declared ordering class matches the paths it
    takes, and that metric/span lifecycles pair up.  Suppression uses
    the same comment grammar as dblint under the [dbflow] marker. *)

type rule = {
  name : string;
  doc : string;  (** one-line description for [--list-rules] *)
  check :
    Program.t -> Graph.t -> Dbtree_lint.Rule.violation list;
}

val all_rules : rule list
(** The registry, in reporting order: [send-handle], [aas-discipline],
    [ordering-class], [counter-lifecycle], [span-pairing]. *)

val rule_names : string list

val check :
  rule list -> Program.t -> Graph.t -> Dbtree_lint.Rule.violation list
(** Run the rules over the program's graph; unsuppressed and unsorted
    ({!Check} applies the [dbflow] allow comments). *)
