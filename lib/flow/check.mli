(** The merged analysis behind [dbcheck]: all four rule families over
    one parsed {!Program}, one {!Graph} and one {!Dbtree_lint.Suppress}
    filter.

    The families keep their own suppression markers: [dblint] for the
    per-file rules ({!Dbtree_lint.Lint}), [dbflow] for {!Flow}, [dbrace]
    for {!Race} and [dbperf] for {!Perf}. *)

val registry : (string * string) list
(** Every rule as [(name, one-line doc)]: the per-file rules, then
    dbflow's, dbrace's and dbperf's, each in its family's order. *)

type report = {
  violations : Dbtree_lint.Rule.violation list;
      (** unsuppressed, sorted by (file, line, col, rule); includes
          [unknown-rule] pseudo-violations for typoed allow comments *)
  suppressed : int;  (** count silenced by allow comments *)
  files : int;
}

val analyze : ?rules:string list -> Program.t -> report
(** Run the named rules (default: all of {!registry}; families mix
    freely) and filter the result through the allow comments of every
    family with a selected rule.  The graph is built once, and only when
    a whole-program rule is selected.
    @raise Invalid_argument on a name outside {!registry}. *)
